"""The performance observatory: sampler, flight recorder, perf-regression
gate, and their kernel/cluster attach points."""

import json

import pytest

from repro.cluster.cluster import Cluster
from repro.obs import Observability
from repro.obs.perf import (
    Deviation,
    FlightRecorder,
    TimeSeriesSampler,
    compare_documents,
    compare_trees,
    load_bench_files,
)
from repro.obs.__main__ import main as obs_main
from repro.obs.dump import aggregate_documents
from repro.obs.perf.sampler import COLOUR_HISTOGRAMS, _COLOUR_COUNTERS
from repro.sim.kernel import Kernel, Timeout
from repro.errors import SimulationError


def perf_main(argv):
    return obs_main(["perf", *argv])


def report_main(argv):
    return obs_main(["report", *argv])


# -- Kernel.every (daemon timers) ---------------------------------------------

def test_periodic_timer_fires_and_never_keeps_run_alive():
    kernel = Kernel()
    ticks = []
    timer = kernel.every(2.0, lambda: ticks.append(kernel.now))

    def work():
        yield Timeout(7.0)
        return "done"

    handle = kernel.spawn(work())
    end = kernel.run()
    # run() returned although the timer would fire forever
    assert handle.result == "done"
    assert ticks == [2.0, 4.0, 6.0]
    assert timer.fires == 3
    assert end == pytest.approx(7.0)


def test_periodic_timer_cancel_stops_firing():
    kernel = Kernel()
    ticks = []
    timer = kernel.every(1.0, lambda: ticks.append(kernel.now))

    def work():
        yield Timeout(2.5)
        timer.cancel()
        yield Timeout(5.0)

    kernel.run_until_settled(kernel.spawn(work()).join())
    assert ticks == [1.0, 2.0]


def test_run_until_settled_reports_drain_with_daemon_only_queue():
    kernel = Kernel()
    kernel.every(1.0, lambda: None)
    never = kernel.event("never")
    with pytest.raises(SimulationError, match="drained"):
        kernel.run_until_settled(never)


def test_every_rejects_non_positive_interval():
    kernel = Kernel()
    with pytest.raises(SimulationError):
        kernel.every(0.0, lambda: None)


# -- TimeSeriesSampler --------------------------------------------------------

def _sampled_cluster_run(seed: int):
    cluster = Cluster(seed=seed)
    for name in ("a", "b"):
        cluster.add_node(name)
    sampler = cluster.observe(timeline={"interval": 3.0},
                              flight_recorder={"seed": seed})["timeline"]
    client = cluster.client("a")

    def app():
        ref = yield from client.create("b", "counter", value=0)
        for index in range(6):
            action = client.top_level(f"t{index}")
            yield from client.invoke(action, ref, "increment", 1)
            yield from client.commit(action)
            yield Timeout(2.0)

    cluster.run_process("a", app())
    # one sampling interval past the application's end, so the last commit
    # is inside a sample whatever tick the schedule put it on
    cluster.run(until=cluster.kernel.now + 3.0)
    return sampler.dump()


def test_sampler_timeline_is_deterministic_for_a_seed():
    assert _sampled_cluster_run(5) == _sampled_cluster_run(5)


def test_sampler_records_per_colour_deltas_and_gauges():
    timeline = _sampled_cluster_run(5)
    assert timeline["interval"] == 3.0
    points = timeline["points"]
    assert points, "sampler never fired"
    committed = 0.0
    saw_gauges = False
    for point in points:
        for row in point.get("colours", {}).values():
            committed += row.get("committed", 0.0)
        saw_gauges = saw_gauges or "gauges" in point
    # counter deltas across the timeline sum to the cumulative total
    assert committed == 6.0
    assert saw_gauges


def test_sampler_decimates_at_max_points():
    hub = Observability()
    sampler = hub.bind(TimeSeriesSampler(interval=1.0, max_points=8))
    for _ in range(20):
        sampler.sample()
    # every time the timeline fills, half the points drop and the stride
    # doubles: 20 manual samples through an 8-point budget decimate 4 times
    assert len(sampler.points) == 4
    assert sampler.stride == 16
    assert sampler.decimations == 4


def test_decimation_keeps_every_count():
    """Folding, not dropping: after several decimations the timeline's
    per-colour counts still sum to the registry's totals, and its window
    means, weighted by their counts, to the histograms' sums."""
    cluster = Cluster(seed=3)
    for name in ("a", "b"):
        cluster.add_node(name)
    sampler = cluster.observe(timeline={"interval": 2.0, "max_points": 4})[
        "timeline"]
    client = cluster.client("a")
    # one colour, so rows of different points fold into each other, and
    # uneven pauses, so the folded windows hold different counts
    colour = client.fresh_colour("shared")

    def app():
        ref = yield from client.create("b", "counter", value=0)
        for index in range(40):
            action = client.coloured([colour], name=f"t{index}")
            yield from client.invoke(action, ref, "increment", 1)
            yield from client.commit(action)
            yield Timeout(float(index % 4))

    cluster.run_process("a", app())
    sampler.sample()
    assert sampler.decimations >= 3
    metrics = cluster.obs.metrics
    expected, timeline = {}, {}
    for key, metric in _COLOUR_COUNTERS:
        for labels, counter in metrics.series(metric):
            if "colour" in labels:
                expected[key] = expected.get(key, 0.0) + counter.value
    for key, metric in COLOUR_HISTOGRAMS:
        for labels, histogram in metrics.series(metric):
            if "colour" in labels:
                expected[f"{key}_count"] = (
                    expected.get(f"{key}_count", 0) + histogram.count)
                expected[f"{key}_sum"] = (
                    expected.get(f"{key}_sum", 0.0) + histogram.total)
    for point in sampler.points:
        for row in point.get("colours", {}).values():
            for key, value in row.items():
                if key.endswith("_mean"):
                    prefix = key[:-len("_mean")]
                    timeline[f"{prefix}_sum"] = timeline.get(
                        f"{prefix}_sum", 0.0) + value * row[f"{prefix}_count"]
                elif not key.endswith(("_p50", "_p95")):
                    timeline[key] = timeline.get(key, 0) + value
    assert expected["committed"] == 40.0
    assert expected["commit_latency_count"] == 40
    assert timeline == pytest.approx(expected)


def test_sampler_rejects_tiny_max_points():
    with pytest.raises(ValueError):
        TimeSeriesSampler(max_points=1)


# -- FlightRecorder -----------------------------------------------------------

def test_ring_evicts_oldest_first_and_keeps_sequence_order():
    hub = Observability()
    recorder = hub.bind(FlightRecorder(capacity=5))
    for index in range(12):
        hub.emit("span.start", index=index)
    events = recorder.ring_events()
    assert [e["labels"]["index"] for e in events] == [7, 8, 9, 10, 11]
    seqs = [e["seq"] for e in events]
    assert seqs == sorted(seqs)
    assert recorder.evicted == 7
    assert recorder.dump()["seen"] == 12


def test_sampling_is_deterministic_and_spares_critical_kinds():
    def run(seed):
        hub = Observability()
        recorder = hub.bind(FlightRecorder(capacity=100, sample_rate=0.3,
                                           seed=seed))
        for index in range(40):
            hub.emit("span.start", index=index)
            if index % 10 == 0:
                hub.emit("twopc.decision", txn=f"t{index}")
        return recorder.ring_events()

    first, second = run(9), run(9)
    assert first == second
    kinds = [e["kind"] for e in first]
    # every critical event survives the 30% sampling
    assert kinds.count("twopc.decision") == 4
    assert 0 < kinds.count("span.start") < 40


def test_recorder_freezes_ring_on_auditor_finding():
    hub = Observability()
    recorder = hub.bind(FlightRecorder(capacity=10))
    # a grant after the owner began releasing = two-phase violation
    hub.emit("lock.granted", node="n", owner="a1", object="o1",
             mode="write", colour="c1")
    hub.emit("lock.released", node="n", owner="a1", object="o1", colour="c1")
    hub.emit("lock.granted", node="n", owner="a1", object="o2",
             mode="write", colour="c1")
    assert hub.auditor.findings
    assert len(recorder.finding_snapshots) == len(hub.auditor.findings)
    snapshot = recorder.finding_snapshots[0]
    assert snapshot["kind"] == "two-phase-violation"
    assert snapshot["events"], "snapshot must carry the ring contents"


def test_recorder_freezes_one_ring_per_same_tick_finding():
    """A burst of findings in one tick freezes one snapshot each — every
    finding gets the ring *as it stood when that finding fired*, and the
    MAX_SNAPSHOTS cap still bounds the dump."""
    from repro.obs.audit.findings import Finding
    from repro.obs.perf.recorder import MAX_SNAPSHOTS

    hub = Observability()
    recorder = hub.bind(FlightRecorder(capacity=8))
    hub.emit("span.start", name="setup")
    for index in range(MAX_SNAPSHOTS + 2):
        # the listener path the auditor uses, all at tick 0.0 (no event)
        hub.auditor._finding("two-phase-violation",
                             f"burst finding {index}", None,
                             node=f"n{index}")
        hub.emit("span.start", name=f"between-{index}")
    assert len(hub.auditor.findings) == MAX_SNAPSHOTS + 2
    assert len(recorder.finding_snapshots) == MAX_SNAPSHOTS
    # each frozen ring reflects its own instant: later snapshots carry the
    # events emitted between earlier findings
    ring_sizes = [len(s["events"]) for s in recorder.finding_snapshots]
    assert ring_sizes == sorted(ring_sizes)
    assert ring_sizes[0] < ring_sizes[-1]
    messages = [s["finding"] for s in recorder.finding_snapshots]
    assert all(f"burst finding {i}" in messages[i]
               for i in range(MAX_SNAPSHOTS))
    # the cap is also what travels in a saved dump
    dumped = recorder.dump()["finding_snapshots"]
    assert len(dumped) == MAX_SNAPSHOTS
    assert isinstance(hub.auditor.findings[0], Finding)


def test_recorder_dump_travels_in_hub_save(tmp_path):
    hub = Observability()
    hub.bind(FlightRecorder(capacity=4))
    hub.emit("span.start", name="x")
    doc = hub.save(str(tmp_path / "dump.json"))
    assert doc["extra"]["flight_recorder"]["seen"] == 1
    assert "timeline" not in doc["extra"]    # no sampler attached


def test_recorder_validates_parameters():
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)
    with pytest.raises(ValueError):
        FlightRecorder(sample_rate=1.5)


# -- compare / perf gate ------------------------------------------------------

def _bench(metrics, scenario="s", **extra):
    doc = {"format": "repro-perf/1", "scenario": scenario,
           "metrics": metrics}
    doc.update(extra)
    return doc


def test_compare_within_tolerance_passes():
    base = _bench({"latency": 10.0, "messages": 100.0})
    run = _bench({"latency": 10.5, "messages": 95.0})
    assert compare_documents("s", run, base) == []


def test_compare_flags_two_sided_regressions():
    base = _bench({"latency": 10.0})
    for drifted in (12.0, 8.0):      # slower AND "faster" both gate
        devs = compare_documents("s", _bench({"latency": drifted}), base)
        assert [d.kind for d in devs] == ["regression"]
        assert devs[0].failing


def test_compare_missing_metric_fails_new_metric_passes():
    base = _bench({"latency": 10.0})
    run = _bench({"throughput": 5.0})
    kinds = {d.kind: d.failing for d in compare_documents("s", run, base)}
    assert kinds == {"missing-metric": True, "new-metric": False}


def test_compare_per_metric_tolerance_override():
    base = _bench({"latency": 10.0}, tolerances={"latency": 0.5})
    assert compare_documents("s", _bench({"latency": 14.0}), base) == []
    devs = compare_documents("s", _bench({"latency": 25.0}), base)
    assert [d.kind for d in devs] == ["regression"]


def test_compare_zero_baseline_requires_zero():
    base = _bench({"aborted": 0.0})
    assert compare_documents("s", _bench({"aborted": 0.0}), base) == []
    devs = compare_documents("s", _bench({"aborted": 3.0}), base)
    assert [d.kind for d in devs] == ["regression"]


def _write_bench(directory, name, doc):
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(doc))
    return path


def test_compare_trees_scenario_presence_rules(tmp_path):
    baseline, current = tmp_path / "base", tmp_path / "run"
    baseline.mkdir(), current.mkdir()
    _write_bench(baseline, "kept", _bench({"x": 1.0}, scenario="kept"))
    _write_bench(baseline, "lost", _bench({"x": 1.0}, scenario="lost"))
    _write_bench(current, "kept", _bench({"x": 1.0}, scenario="kept"))
    _write_bench(current, "fresh", _bench({"x": 1.0}, scenario="fresh"))
    devs = compare_trees(str(baseline), str(current))
    by_kind = {d.kind: d for d in devs}
    # a skipped baselined scenario fails; a brand-new one only notices
    assert by_kind["missing-scenario"].failing
    assert by_kind["missing-scenario"].scenario == "lost"
    assert not by_kind["new-scenario"].failing
    assert by_kind["new-scenario"].scenario == "fresh"


def test_load_bench_files_names_from_doc_or_filename(tmp_path):
    _write_bench(tmp_path, "named", _bench({}, scenario="inner"))
    (tmp_path / "BENCH_bare.json").write_text(json.dumps({"metrics": {}}))
    found = load_bench_files(str(tmp_path))
    assert set(found) == {"inner", "bare"}


def test_deviation_descriptions_cover_all_kinds():
    cases = [
        Deviation("s", "regression", "m", 10.0, 12.0, 0.1),
        Deviation("s", "missing-metric", "m", baseline=10.0),
        Deviation("s", "new-metric", "m", current=1.0),
        Deviation("s", "missing-scenario"),
        Deviation("s", "new-scenario"),
    ]
    for deviation in cases:
        assert deviation.describe().startswith("[s]")


# -- report aggregation -------------------------------------------------------

def test_aggregate_documents_sums_counters_and_merges_histograms():
    first = {"metrics": {
        "counters": [{"name": "c", "labels": {"k": "a"}, "value": 2.0}],
        "gauges": [],
        "histograms": [{"name": "h", "labels": {}, "count": 2, "sum": 10.0,
                        "min": 4.0, "max": 6.0}],
    }}
    second = {"metrics": {
        "counters": [{"name": "c", "labels": {"k": "a"}, "value": 3.0},
                     {"name": "c", "labels": {"k": "b"}, "value": 1.0}],
        "gauges": [],
        "histograms": [{"name": "h", "labels": {}, "count": 2, "sum": 30.0,
                        "min": 14.0, "max": 16.0}],
    }}
    merged = aggregate_documents([first, second])["metrics"]
    values = {tuple(sorted(r["labels"].items())): r["value"]
              for r in merged["counters"]}
    assert values == {(("k", "a"),): 5.0, (("k", "b"),): 1.0}
    hist = merged["histograms"][0]
    assert (hist["count"], hist["sum"]) == (4, 40.0)
    assert (hist["min"], hist["max"]) == (4.0, 16.0)
    assert hist["mean"] == 10.0
    assert "p50" not in hist                  # unmergeable: omitted
    assert hist["merged_from"] == 2


def test_report_cli_aggregates_multiple_dumps(tmp_path, capsys):
    dump = {"metrics": {
        "counters": [{"name": "ops", "labels": {}, "value": 4.0}],
        "gauges": [], "histograms": [],
    }}
    paths = []
    for index in range(2):
        path = tmp_path / f"d{index}.json"
        path.write_text(json.dumps(dump))
        paths.append(str(path))
    assert report_main(paths) == 0
    out = capsys.readouterr().out
    assert "aggregating 2 dumps" in out
    assert "8" in out


# -- batched prepare (multi-colour commit over call_many) ---------------------

def _multi_colour_cluster():
    from repro.objects.state import ObjectState

    cluster = Cluster(seed=3)
    for name in ("app", "s1", "s2"):
        cluster.add_node(name)
    client = cluster.client("app")

    def committed_int(ref):
        stored = cluster.nodes[ref.node].stable_store.read_committed(ref.uid)
        return ObjectState.from_bytes(stored.payload).unpack_int()

    return cluster, client, committed_int


def _saved_rpcs(cluster):
    return sum(instrument.value for _labels, instrument in
               cluster.obs.metrics.series("prepare_batch_saved_rpcs_total"))


def test_multi_colour_commit_batches_prepares_per_server():
    cluster, client, committed_int = _multi_colour_cluster()
    refs = {}

    def app():
        red = client.fresh_colour("red")
        blue = client.fresh_colour("blue")
        for key, node in (("r1", "s1"), ("r2", "s2"),
                          ("b1", "s1"), ("b2", "s2")):
            refs[key] = yield from client.create(node, "counter", value=0)
        action = client.coloured([red, blue], name="multi")
        for key, colour in (("r1", red), ("r2", red),
                            ("b1", blue), ("b2", blue)):
            yield from client.invoke(action, refs[key], "increment", 1,
                                     colour=colour)
        yield from client.commit(action)

    cluster.run_process("app", app())
    assert [committed_int(refs[k]) for k in ("r1", "r2", "b1", "b2")] \
        == [1, 1, 1, 1]
    # both colours span both servers: one batch of 2 sub-calls per server
    # replaces 2 sequential prepare round trips -> 1 saved on each
    assert _saved_rpcs(cluster) == 2.0
    assert cluster.obs.auditor.report() == []


def test_multi_colour_commit_fails_atomically_when_a_server_is_down():
    from repro.errors import CommitError

    cluster, client, committed_int = _multi_colour_cluster()
    refs = {}
    outcome = {}

    def app():
        red = client.fresh_colour("red")
        blue = client.fresh_colour("blue")
        refs["r1"] = yield from client.create("s1", "counter", value=7)
        refs["r2"] = yield from client.create("s2", "counter", value=7)
        refs["b2"] = yield from client.create("s2", "counter", value=7)
        action = client.coloured([red, blue], name="doomed")
        yield from client.invoke(action, refs["r1"], "increment", 1,
                                 colour=red)
        yield from client.invoke(action, refs["r2"], "increment", 1,
                                 colour=red)
        yield from client.invoke(action, refs["b2"], "increment", 1,
                                 colour=blue)
        cluster.crash("s2")
        try:
            yield from client.commit(action)
        except CommitError as error:
            outcome["error"] = error

    cluster.run_process("app", app())
    assert "error" in outcome, "commit against a crashed participant passed"
    # nothing became permanent: the live server still holds the old value
    assert committed_int(refs["r1"]) == 7


# -- process probes and the timeline renderer (text / HTML / CLI) -------------


def test_process_probes_are_off_by_default():
    timeline = _sampled_cluster_run(5)
    assert all("process" not in point for point in timeline["points"])


def test_process_probes_sample_host_gc_pressure():
    hub = Observability()
    sampler = hub.bind(TimeSeriesSampler(interval=1.0, process_probes=True))
    sampler.sample()
    (point,) = sampler.points
    process = point["process"]
    assert {"gc_gen0", "gc_gen1", "gc_gen2", "gc_collections",
            "objects", "alloc_blocks"} <= set(process)
    assert process["objects"] > 0 and process["alloc_blocks"] > 0


def _dumped_run(tmp_path, seed=5):
    cluster = Cluster(seed=seed)
    for name in ("a", "b"):
        cluster.add_node(name)
    cluster.observe(timeline={"interval": 3.0},
                    flight_recorder={"seed": seed})
    client = cluster.client("a")

    def app():
        ref = yield from client.create("b", "counter", value=0)
        for index in range(6):
            action = client.top_level(f"t{index}")
            yield from client.invoke(action, ref, "increment", 1)
            yield from client.commit(action)
            yield Timeout(2.0)

    cluster.run_process("a", app())
    path = str(tmp_path / "run.trace.json")
    cluster.obs.save(path)
    return path


def test_timeline_text_renders_a_sparkline_per_series(tmp_path):
    from repro.obs.perf import timeline_text

    path = _dumped_run(tmp_path)
    with open(path) as handle:
        timeline = json.load(handle)["extra"]["timeline"]
    text = timeline_text(timeline, width=40)
    assert "colours:" in text and "gauges:" in text
    committed_rows = [line for line in text.splitlines()
                      if "/committed" in line]
    assert committed_rows and "last" in committed_rows[0]
    # an empty timeline degrades, not raises
    assert "no series" in timeline_text({"points": []})


def test_timeline_html_is_self_contained(tmp_path):
    from repro.obs.perf import timeline_html

    path = _dumped_run(tmp_path)
    with open(path) as handle:
        timeline = json.load(handle)["extra"]["timeline"]
    page = timeline_html(timeline, title="run #5")
    assert page.startswith("<!DOCTYPE html>")
    assert "<svg" in page and "<polyline" in page
    assert "run #5" in page
    # self-contained: no scripts, no external fetches
    assert "<script" not in page and "http" not in page.lower()


def test_perf_timeline_cli_text_html_and_errors(tmp_path, capsys):
    path = _dumped_run(tmp_path)
    assert perf_main(["timeline", path]) == 0
    assert "timeline:" in capsys.readouterr().out
    out_html = str(tmp_path / "timeline.html")
    assert perf_main(["timeline", path, "--html", out_html]) == 0
    capsys.readouterr()
    with open(out_html) as handle:
        assert "<svg" in handle.read()
    # operational errors: missing file, non-object, no timeline section
    assert perf_main(["timeline", str(tmp_path / "nope.json")]) == 1
    bare = tmp_path / "bare.json"
    bare.write_text("{}")
    assert perf_main(["timeline", str(bare)]) == 1
    errors = capsys.readouterr().err
    assert "no timeline" in errors

"""The soak observatory: bounded retention, segment rotation, chaos arms.

Unit tests pin the retention primitives the soak leans on (tracer drain,
metrics series cap + snapshot-and-diff deltas, sampler point listeners,
flight-recorder drain/freeze).  The module-scoped fixtures then run the
acceptance soaks once each — the faulty two-sim-hour arm rotated and
unrotated (the reference), plus two clean horizons — and every
aggregation / attribution / memory-bound assertion reads from those runs.
"""

import json
import os

import pytest

from repro.obs import History, Observability
from repro.obs.__main__ import main as obs_main
from repro.obs.dump import aggregate_documents, segment_name, segment_paths
from repro.obs.metrics import (
    OVERFLOW_LABEL,
    MetricsRegistry,
    dump_delta,
)
from repro.obs.perf import FlightRecorder, TimeSeriesSampler
from repro.obs.perf.recorder import MAX_SNAPSHOTS
from repro.obs.soak import SUMMARY_NAME, SoakRunner
from repro.obs.tracing import Tracer


def _console(name):
    return lambda argv: obs_main([name, *argv])


report_main, audit_main, slo_main, soak_main, top_main = map(
    _console, ("report", "audit", "slo", "soak", "top"))


# -- tracer drain (what rotation hands out) ------------------------------------

def test_drain_finished_removes_only_finished_spans():
    tracer = Tracer()
    tracer.retain()
    open_span = tracer.start_span("open")
    for index in range(3):
        tracer.start_span(f"s{index}").finish()
    drained = tracer.drain_finished()
    assert [span.name for span in drained] == ["s0", "s1", "s2"]
    assert tracer.spans == [open_span]


# -- metrics series cap + deltas ----------------------------------------------

def test_metrics_cap_folds_overflow_series_preserving_sums():
    registry = MetricsRegistry(max_series_per_metric=2)
    for index in range(6):
        registry.counter("ops_total", colour=f"c{index}").inc(1.0)
    rows = registry.dump()["counters"]
    ops = [row for row in rows if row["name"] == "ops_total"]
    # two real series plus one overflow series, sums exact
    assert len(ops) == 3
    assert sum(row["value"] for row in ops) == 6.0
    overflow = [row for row in ops
                if row["labels"] == {"colour": OVERFLOW_LABEL}]
    assert overflow[0]["value"] == 4.0
    folded = [row for row in rows
              if row["name"] == "metrics_series_folded_total"]
    assert folded == [{"name": "metrics_series_folded_total",
                       "labels": {"kind": "counter", "metric": "ops_total"},
                       "value": 4.0}]
    assert registry.series_count() == 3


def test_fold_row_counts_lookups_not_label_sets_and_folds_are_not_cached():
    """``metrics_series_folded_total`` counts folded *lookups*: one over-cap
    label set used three times adds 3, and none of the three leaves an
    entry in the resolved-instrument cache (the cap bounds that too)."""
    registry = MetricsRegistry(max_series_per_metric=1)
    registry.counter("ops_total", colour="kept").inc()
    cached = dict(registry._resolved)
    for _ in range(3):
        registry.counter("ops_total", colour="late").inc(2.0)
    registry.counter("ops_total", colour="later").inc(2.0)
    rows = registry.dump()["counters"]
    assert [row["value"] for row in rows
            if row["name"] == "metrics_series_folded_total"] == [4.0]
    assert [row["value"] for row in rows
            if row["labels"] == {"colour": OVERFLOW_LABEL}] == [8.0]
    assert registry._resolved == cached


def test_uncapped_registry_dump_carries_no_fold_rows():
    registry = MetricsRegistry()
    for index in range(6):
        registry.counter("ops_total", colour=f"c{index}").inc(1.0)
    names = {row["name"] for row in registry.dump()["counters"]}
    assert "metrics_series_folded_total" not in names


def test_unlabelled_series_never_fold():
    registry = MetricsRegistry(max_series_per_metric=1)
    registry.counter("a").inc()
    registry.counter("b").inc()
    assert registry.value("a") == 1.0
    assert registry.value("b") == 1.0


def test_dump_delta_telescopes_back_to_cumulative_totals():
    registry = MetricsRegistry()
    deltas = []
    baseline = registry.dump()
    for window in range(3):
        registry.counter("ops_total", colour="c1").inc(2.0)
        registry.gauge("depth").set(float(window))
        registry.histogram("lat", colour="c1").observe(10.0 * (window + 1))
        current = registry.dump()
        deltas.append({"metrics": dump_delta(current, baseline)})
        baseline = current

    # a window's delta is exactly that window's activity
    window_hist = deltas[1]["metrics"]["histograms"][0]
    assert window_hist["count"] == 1
    assert window_hist["sum"] == 20.0
    assert window_hist["mean"] == 20.0

    merged = aggregate_documents(deltas)["metrics"]
    final = registry.dump()
    counters = {row["name"]: row["value"] for row in merged["counters"]}
    assert counters["ops_total"] == 6.0
    gauges = {row["name"]: row["value"] for row in merged["gauges"]}
    assert gauges["depth"] == 2.0          # gauge deltas telescope too
    hist = merged["histograms"][0]
    reference = final["histograms"][0]
    assert hist["count"] == reference["count"]
    assert hist["sum"] == reference["sum"]
    assert hist["min"] == reference["min"]
    assert hist["max"] == reference["max"]


def test_dump_delta_omits_quiet_rows():
    registry = MetricsRegistry()
    registry.counter("hot").inc()
    registry.counter("cold").inc()
    baseline = registry.dump()
    registry.counter("hot").inc()
    delta = dump_delta(registry.dump(), baseline)
    assert [row["name"] for row in delta["counters"]] == ["hot"]
    assert delta["histograms"] == []


# -- sampler point listeners + windowed means ---------------------------------

def test_sampler_point_listener_sees_every_point_and_windowed_mean():
    hub = Observability()
    hub.bind(History())
    sampler = hub.bind(TimeSeriesSampler(interval=1.0))
    seen = []
    sampler.add_point_listener(seen.append)

    hub.observe("commit_latency", 10.0, colour="c1")
    hub.observe("commit_latency", 20.0, colour="c1")
    sampler.sample()
    hub.observe("commit_latency", 90.0, colour="c1")
    sampler.sample()

    assert len(seen) == 2
    first, second = (point["colours"]["c1"] for point in seen)
    assert first["commit_latency_count"] == 2.0
    assert first["commit_latency_mean"] == 15.0
    # the second window's mean covers only the new observation
    assert second["commit_latency_count"] == 1.0
    assert second["commit_latency_mean"] == 90.0


def test_sampler_point_listener_errors_propagate():
    hub = Observability()
    sampler = hub.bind(TimeSeriesSampler(interval=1.0))
    sampler.add_point_listener(
        lambda point: (_ for _ in ()).throw(RuntimeError("boom")))
    with pytest.raises(RuntimeError, match="boom"):
        sampler.sample()


# -- flight recorder drain / freeze -------------------------------------------

def test_recorder_freeze_is_bounded_and_take_snapshots_rearms():
    hub = Observability()
    recorder = hub.bind(FlightRecorder(capacity=8))
    hub.emit("twopc.begin", txn="t1")
    for index in range(MAX_SNAPSHOTS):
        assert recorder.freeze(f"f{index}") is True
    assert recorder.freeze("over") is False
    taken = recorder.rotate(0.0, 1.0)["finding_snapshots"]
    assert [snapshot["finding"] for snapshot in taken] == [
        f"f{index}" for index in range(MAX_SNAPSHOTS)]
    assert taken[0]["events"][0]["kind"] == "twopc.begin"
    # cap re-armed: the next segment may freeze its own snapshots
    assert recorder.freeze("next-segment") is True


def test_recorder_drain_empties_ring_but_keeps_counters():
    hub = Observability()
    recorder = hub.bind(FlightRecorder(capacity=2))
    for index in range(5):
        hub.emit("twopc.begin", txn=f"t{index}")
    assert recorder.evicted == 3
    drained = recorder.rotate(0.0, 1.0)["events"]
    assert [entry["labels"]["txn"] for entry in drained] == ["t3", "t4"]
    assert recorder.ring_events() == []
    assert recorder.evicted == 3
    hub.emit("twopc.begin", txn="t5")
    assert len(recorder.ring_events()) == 1


# -- the acceptance soaks (module-scoped: each runs once) ----------------------

_SOAK = dict(seed=21, horizon=7200.0, segment_every=1800.0,
             sample_interval=20.0)


@pytest.fixture(scope="module")
def faulty_soak(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("soak-faulty"))
    summary = SoakRunner(out_dir=out, arm="faulty", **_SOAK).run()
    return summary, out


@pytest.fixture(scope="module")
def faulty_reference():
    """The same faulty arm, never rotated: the unbounded ground truth."""
    runner = SoakRunner(out_dir=None, arm="faulty", rotate=False, **_SOAK)
    return runner, runner.run()


@pytest.fixture(scope="module")
def clean_soak(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("soak-clean"))
    summary = SoakRunner(out_dir=out, arm="clean", **_SOAK).run()
    return summary, out


@pytest.fixture(scope="module")
def clean_half_soak(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("soak-clean-half"))
    params = dict(_SOAK, horizon=3600.0)
    summary = SoakRunner(out_dir=out, arm="clean", **params).run()
    return summary, out


def _segment_documents(out):
    documents = []
    for path in segment_paths(out):
        with open(path, "r", encoding="utf-8") as handle:
            documents.append(json.load(handle))
    return documents


def test_soak_rejects_bad_configuration(tmp_path):
    with pytest.raises(ValueError, match="unknown arm"):
        SoakRunner(arm="chaotic-good")
    with pytest.raises(ValueError, match="must all be > 0"):
        SoakRunner(horizon=0.0)
    with pytest.raises(ValueError, match="must all be > 0"):
        SoakRunner(segment_every=-1.0)


def test_faulty_soak_streams_at_least_four_segments(faulty_soak):
    summary, out = faulty_soak
    paths = segment_paths(out)
    assert len(paths) >= 4
    assert summary["segments"] == [os.path.basename(path)
                                   for path in paths]
    assert [os.path.basename(path) for path in paths] == [
        segment_name(index) for index in range(len(paths))]
    with open(os.path.join(out, SUMMARY_NAME), encoding="utf-8") as handle:
        on_disk = json.load(handle)
    assert on_disk == summary
    assert summary["format"] == "repro-soak/1"
    # segment windows tile the run: each picks up where the last ended
    documents = _segment_documents(out)
    edges = [(doc["extra"]["segment"]["start_tick"],
              doc["extra"]["segment"]["end_tick"]) for doc in documents]
    assert edges[0][0] == 0.0
    for (_, end), (start, _) in zip(edges, edges[1:]):
        assert start == end


def test_fault_burst_trips_latency_slo_and_is_attributed(faulty_soak):
    summary, _out = faulty_soak
    assert summary["exit_code"] == 2
    assert summary["audit_findings"] == 0
    assert summary["breach_total"] > 0
    assert summary["active_breaches"] == []      # everything recovered
    by_name = {}
    for entry in summary["breaches"]:
        by_name.setdefault(entry["objective"], []).append(entry)
    assert "commit-latency" in by_name
    # the breach window sits inside the fault burst (35%..50% of the
    # horizon) plus the long-window recovery tail
    burst_start = 0.35 * _SOAK["horizon"]
    burst_end = burst_start + 0.15 * _SOAK["horizon"]
    tail = 12 * _SOAK["sample_interval"]
    for entry in by_name["commit-latency"]:
        assert burst_start <= entry["start_tick"] <= burst_end + tail
        assert entry["end_tick"] is not None
        assert entry["end_tick"] <= burst_end + tail
        assert entry["peak_burn"] > 1.0


def test_breach_freezes_the_flight_ring_into_its_segment(faulty_soak):
    _summary, out = faulty_soak
    snapshots = [snapshot
                 for doc in _segment_documents(out)
                 for snapshot in doc["extra"]["flight_recorder"]
                 ["finding_snapshots"]]
    breaches = [s for s in snapshots if s["kind"] == "slo-breach"]
    assert breaches
    assert all(snapshot["events"] for snapshot in breaches)
    # the frozen ring carries the breach context itself
    assert any("commit-latency" in snapshot["finding"]
               for snapshot in breaches)


def test_clean_soak_exits_zero_with_no_breaches(clean_soak):
    summary, _out = clean_soak
    assert summary["exit_code"] == 0
    assert summary["breach_total"] == 0
    assert summary["audit_findings"] == 0
    assert summary["committed"] > 0
    assert all(verdict["breaching"] == []
               for verdict in summary["segment_verdicts"])


def test_segments_aggregate_to_the_unrotated_reference(faulty_soak,
                                                       faulty_reference):
    """Rotation loses nothing: summed segment deltas equal the cumulative
    totals of the identical run that never rotated."""
    _summary, out = faulty_soak
    runner, _reference_summary = faulty_reference
    documents = _segment_documents(out)
    merged = aggregate_documents(documents)["metrics"]
    reference = runner.cluster.obs.metrics.dump()

    def by_key(rows):
        return {(row["name"], tuple(sorted(row["labels"].items()))): row
                for row in rows}

    for section in ("counters", "gauges"):
        merged_rows = by_key(merged[section])
        reference_rows = by_key(reference[section])
        assert set(merged_rows) == set(reference_rows)
        for key, row in reference_rows.items():
            assert merged_rows[key]["value"] == pytest.approx(
                row["value"]), key
    merged_hists = by_key(merged["histograms"])
    for key, row in by_key(reference["histograms"]).items():
        assert merged_hists[key]["count"] == row["count"], key
        assert merged_hists[key]["sum"] == pytest.approx(row["sum"]), key

    # spans and audit events partition exactly across segments
    tracer = runner.cluster.obs.tracer
    segment_spans = sum(len(doc["spans"]) for doc in documents)
    assert segment_spans == len(tracer.finished_spans())
    segment_events = sum(len(doc["events"]) for doc in documents)
    assert segment_events == len(
        runner.history.events)
    # ... and without overlap: every (segment) event seq is unique
    seqs = [event["seq"] for doc in documents for event in doc["events"]]
    assert len(seqs) == len(set(seqs))


def test_rotation_bounds_peak_retention(faulty_soak, faulty_reference):
    summary, _out = faulty_soak
    runner, reference_summary = faulty_reference
    peaks = summary["peaks"]
    # static caps hold
    assert peaks["flight_ring"] <= 1024
    assert peaks["sampler_points"] <= 1024
    # rotated retention stays well under the unrotated run's final sizes
    assert peaks["spans"] < len(runner.cluster.obs.tracer.spans) / 2
    assert peaks["audit_events"] < len(
        runner.history.events) / 2
    assert reference_summary["peaks"]["spans"] > 2 * peaks["spans"]


@pytest.mark.parametrize("seed", [21, 22, 24, 25])
def test_faulty_arm_ends_with_no_mirror_on_any_server(seed,
                                                      faulty_reference):
    """Every abort of these arms is a first lock request whose wait timed
    out on the server: the answer takes the empty mirror with it, the
    client having noted nothing it could later abort there.  The seeds are
    ones whose schedule has aborts at all (23 has none since stale
    requests are dropped, which shifts every later delay draw)."""
    runner, summary = faulty_reference
    if seed != runner.seed:
        runner = SoakRunner(arm="faulty", rotate=False,
                            **dict(_SOAK, seed=seed))
        summary = runner.run()
    assert summary["aborted"] > 0
    assert {name: len(server.mirrors)
            for name, server in runner.cluster.servers.items()} == {
        "n0": 0, "n1": 0, "n2": 0}


def test_peak_retention_is_horizon_independent(clean_soak, clean_half_soak):
    """Doubling the horizon must not grow retained memory: peaks are a
    function of the segment period, not the run length."""
    full, _ = clean_soak
    half, _ = clean_half_soak
    for key in ("spans", "audit_events", "flight_ring", "metric_series"):
        assert full["peaks"][key] <= half["peaks"][key] * 1.25, key
    assert full["peaks"]["sampler_points"] <= 1024


def test_consoles_aggregate_a_segment_directory(faulty_soak, clean_soak,
                                                capsys):
    _summary, faulty_out = faulty_soak
    _clean_summary, clean_out = clean_soak
    assert report_main([faulty_out, "--metrics-only"]) == 0
    out = capsys.readouterr().out
    assert "aggregating" in out
    assert "actions_committed_total" in out
    assert audit_main([faulty_out]) == 0
    assert "clean" in capsys.readouterr().out
    assert slo_main([clean_out]) == 0
    capsys.readouterr()
    assert slo_main([faulty_out]) == 2
    assert "commit-latency" in capsys.readouterr().out


def test_segments_carry_every_bound_layer(clean_soak, capsys):
    """One writer for every section: a segment has what a whole-run dump
    has, windowed — introspection included, so ``top <segment dir>``
    renders the run's last frame."""
    _summary, out = clean_soak
    documents = _segment_documents(out)
    for document in documents:
        extra = document["extra"]
        assert sorted(extra) == ["flight_recorder", "introspection",
                                 "segment", "slo", "timeline"]
        # what a segment has always had keeps its keys
        assert {"capacity", "sample_rate", "evicted", "skipped", "events",
                "finding_snapshots"} <= set(extra["flight_recorder"])
        assert {"interval", "stride", "decimations",
                "points"} <= set(extra["timeline"])
        assert {"breaches", "status", "frames",
                "active"} <= set(extra["slo"])
        start, end = (extra["segment"][key]
                      for key in ("start_tick", "end_tick"))
        for section, key in (("timeline", "points"),
                             ("introspection", "snapshots")):
            assert all(start < row["tick"] <= end
                       for row in extra[section][key]), section
    snapshots = [snapshot for document in documents
                 for snapshot in document["extra"]["introspection"]
                 ["snapshots"]]
    assert len(snapshots) > len(documents)
    ticks = [snapshot["tick"] for snapshot in snapshots]
    assert ticks == sorted(set(ticks))       # each probe in one segment

    assert top_main([out, "--snapshot", "--json"]) == 0
    rendered = capsys.readouterr().out
    assert "no introspection section" not in rendered
    assert json.loads(rendered) == snapshots[-1]


def test_directory_without_segments_is_unusable_input(tmp_path, capsys):
    empty = str(tmp_path / "empty")
    os.makedirs(empty)
    for main in (report_main, audit_main, slo_main):
        assert main([empty]) == 1
        assert "without" in capsys.readouterr().err


def test_soak_cli_renders_summary_and_writes_segments(tmp_path, capsys):
    out = str(tmp_path / "out")
    code = soak_main(["--arm", "clean", "--horizon", "300",
                      "--segment-every", "100", "--interval", "10",
                      "--seed", "7", "--out", out])
    assert code == 0
    rendered = capsys.readouterr().out
    assert "arm clean" in rendered
    assert "0 SLO breach(es)" in rendered
    assert segment_paths(out)
    assert os.path.exists(os.path.join(out, SUMMARY_NAME))


def test_soak_cli_json_summary_is_deterministic(tmp_path, capsys):
    argv = ["--arm", "faulty", "--horizon", "400", "--segment-every",
            "150", "--interval", "10", "--no-rotate", "--json"]
    soak_main(list(argv))
    first = json.loads(capsys.readouterr().out)
    soak_main(list(argv))
    second = json.loads(capsys.readouterr().out)
    assert first == second


def test_soak_cli_rejects_out_path_that_is_a_file(tmp_path, capsys):
    target = tmp_path / "occupied"
    target.write_text("x")
    assert soak_main(["--arm", "clean", "--out", str(target)]) == 1
    assert "not a directory" in capsys.readouterr().err

"""The SLO engine: objectives, multi-window burn-rate alerting, CLIs.

Micro tests drive :meth:`SLOEngine.observe_frame` with synthetic
cumulative measures so window arithmetic is checked exactly; integration
tests attach the engine to a real cluster (the attach-point matrix test
doubles as the ``Observability.save`` round-trip check for *all five*
obs layers at once) and the CLI tests pin the ``slo`` console's
content and exit codes beyond the shared contract suite.
"""

import json

import pytest

from repro.cluster.cluster import Cluster
from repro.errors import ClusterError
from repro.obs import History, Observability
from repro.obs.__main__ import main as obs_main
from repro.obs.perf import TimeSeriesSampler
from repro.obs.slo import (
    KINDS,
    Objective,
    SLOEngine,
    default_objectives,
    evaluate_timeline,
)
from repro.obs.slo import engine as slo_engine
from repro.sim.kernel import Timeout


def _console(name):
    return lambda argv: obs_main([name, *argv])


report_main, audit_main, why_main, top_main, slo_main = map(
    _console, ("report", "audit", "why", "top", "slo"))


# -- Objective validation ------------------------------------------------------

@pytest.mark.parametrize("kwargs,match", [
    (dict(name="", kind="latency", metric="m", target=1.0), "needs a name"),
    (dict(name="x", kind="bogus"), "unknown objective kind"),
    (dict(name="x", kind="latency", target=1.0), "needs a metric"),
    (dict(name="x", kind="zero"), "needs a metric"),
    (dict(name="x", kind="latency", metric="m", target=0.0), "target"),
    (dict(name="x", kind="abort_rate", target=-0.5), "target"),
    (dict(name="x", kind="latency", metric="m", target=1.0,
          short_window=0), "short_window"),
    (dict(name="x", kind="latency", metric="m", target=1.0,
          short_window=5, long_window=3), "long_window"),
    (dict(name="x", kind="latency", metric="m", target=1.0,
          burn_threshold=0.0), "burn_threshold"),
])
def test_objective_validation_rejects(kwargs, match):
    with pytest.raises(ValueError, match=match):
        Objective(**kwargs)


def test_objective_round_trips_through_dicts():
    objective = Objective("lat", "latency", metric="commit_latency",
                          colour="c1", target=10.0, burn_threshold=2.0,
                          short_window=2, long_window=8, description="d")
    assert Objective.from_dict(objective.to_dict()) == objective


def test_objective_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown objective fields: bogus"):
        Objective.from_dict({"name": "x", "kind": "zero", "metric": "m",
                             "bogus": 1})


def test_default_objectives_cover_the_story():
    objectives = default_objectives()
    names = [objective.name for objective in objectives]
    assert names == ["commit-latency", "abort-rate", "audit-findings",
                     "introspect-drift", "cluster-health"]
    assert all(objective.kind in KINDS for objective in objectives)
    without_health = default_objectives(include_health=False)
    assert [o.name for o in without_health] == names[:-1]


def test_engine_rejects_duplicate_objective_names():
    duplicate = [Objective("x", "zero", metric="m"),
                 Objective("x", "zero", metric="n")]
    with pytest.raises(ValueError, match="duplicate objective names"):
        SLOEngine(objectives=duplicate)


# -- multi-window burn-rate evaluation ----------------------------------------

def _latency_objective(**overrides):
    kwargs = dict(name="lat", kind="latency", metric="commit_latency",
                  target=10.0, short_window=2, long_window=4)
    kwargs.update(overrides)
    return Objective(**kwargs)


def test_single_spike_does_not_page_but_sustained_burn_does():
    engine = SLOEngine(objectives=[_latency_objective()])

    # frames carry cumulative (count, sum): one commit per frame
    frames = [
        (10, (1, 5.0)), (20, (2, 10.0)), (30, (3, 15.0)),
        (40, (4, 20.0)), (50, (5, 25.0)),     # steady mean 5: burn 0.5
        (60, (6, 45.0)),                       # one spike of 20
    ]
    for tick, measure in frames:
        assert engine.observe_frame(tick, {"lat": measure}) == []
    # the spike burned the short window (1.25x) but not the long (0.875x):
    # the classic multi-window rule keeps one noisy interval from paging
    assert engine.active() == []
    assert engine.breach_total == 0

    # a *sustained* regression at 20 ticks/commit burns both windows
    opened = engine.observe_frame(70, {"lat": (7, 65.0)})
    assert [entry["objective"] for entry in opened] == ["lat"]
    entry = opened[0]
    assert entry["start_tick"] == 70
    assert entry["end_tick"] is None
    assert entry["burn_short"] == pytest.approx(2.0)
    assert entry["burn_long"] == pytest.approx(1.25)
    assert engine.active() == ["lat"]

    # recovery clears on the *short* window alone
    engine.observe_frame(80, {"lat": (8, 70.0)})     # short still 1.25x
    assert engine.active() == ["lat"]
    engine.observe_frame(90, {"lat": (9, 75.0)})     # short back to 0.5x
    assert engine.active() == []
    assert entry["end_tick"] == 90
    assert entry["peak_burn"] == pytest.approx(2.0)
    assert engine.breach_total == 1


def test_zero_tolerance_objective_trips_on_any_increase():
    engine = SLOEngine(objectives=[
        Objective("find", "zero", metric="audit_findings_total",
                  short_window=3, long_window=6)])
    assert engine.observe_frame(1, {"find": (0.0,)}) == []
    assert engine.observe_frame(2, {"find": (0.0,)}) == []
    opened = engine.observe_frame(3, {"find": (1.0,)})
    assert [entry["objective"] for entry in opened] == ["find"]
    # recovers once the increase ages out of the short window
    for tick in (4, 5):
        engine.observe_frame(tick, {"find": (1.0,)})
        assert engine.active() == ["find"]
    engine.observe_frame(6, {"find": (1.0,)})
    assert engine.active() == []
    assert opened[0]["end_tick"] == 6


def test_health_objective_tolerates_degraded_breaches_on_stalled():
    engine = SLOEngine(objectives=[
        Objective("health", "health", metric="cluster_health", target=1.0)])
    assert engine.observe_frame(1, {"health": (0.0, "")}) == []
    # degraded (rank 1) is within target
    assert engine.observe_frame(2, {"health": (1.0, "n1")}) == []
    opened = engine.observe_frame(3, {"health": (2.0, "n2")})
    assert [entry["objective"] for entry in opened] == ["health"]
    assert opened[0]["node"] == "n2"
    engine.observe_frame(4, {"health": (0.0, "")})
    assert engine.active() == []


def test_abort_rate_objective_normalises_by_budget():
    engine = SLOEngine(objectives=[
        Objective("ab", "abort_rate", target=0.25,
                  short_window=2, long_window=4)])
    for tick, measure in [(1, (0.0, 10.0)), (2, (0.0, 20.0)),
                          (3, (0.0, 30.0))]:
        assert engine.observe_frame(tick, {"ab": measure}) == []
    # 5 aborts in the short window (29%) but long window still in budget
    assert engine.observe_frame(4, {"ab": (5.0, 32.0)}) == []
    opened = engine.observe_frame(5, {"ab": (10.0, 34.0)})
    assert [entry["objective"] for entry in opened] == ["ab"]
    assert opened[0]["value"] == pytest.approx(10.0 / 14.0)


def test_breach_ledger_is_bounded(monkeypatch):
    monkeypatch.setattr(slo_engine, "MAX_BREACHES", 2)
    engine = SLOEngine(objectives=[
        Objective("find", "zero", metric="m", short_window=1,
                  long_window=1)])
    tick = 0
    # round 1 only seeds the two-frame history; rounds 2-5 each trip once
    for round_no in range(1, 6):
        tick += 1
        engine.observe_frame(tick, {"find": (float(round_no),)})  # trips
        tick += 1
        engine.observe_frame(tick, {"find": (float(round_no),)})  # clears
    assert len(engine.breaches) == 2
    assert engine.dropped_breaches == 2
    assert engine.breach_total == 4
    assert engine.dump()["dropped_breaches"] == 2


def test_window_status_reports_per_objective_state():
    engine = SLOEngine(objectives=[_latency_objective()])
    assert engine.window_status() == [
        {"objective": "lat", "state": "no-data", "burn_short": None,
         "burn_long": None, "value": None}]
    engine.observe_frame(1, {"lat": (1, 5.0)})
    engine.observe_frame(2, {"lat": (2, 10.0)})
    status = engine.window_status()
    assert status[0]["state"] == "ok"
    assert status[0]["burn_short"] == pytest.approx(0.5)


# -- the bound engine: probes and catch-up -------------------------------------

def _bound(objectives):
    """A bare hub with history, a hand-driven sampler and an engine."""
    hub = Observability()
    hub.bind(History())
    sampler = hub.bind(TimeSeriesSampler(interval=1.0))
    return hub, sampler, hub.bind(SLOEngine(objectives=objectives))


def _measures(engine):
    """The latest frame's measure per objective."""
    return {name: history[-1][1]
            for name, history in engine._history.items()}


def test_measure_reads_every_objective_kind_from_the_registry():
    """The point carries what the registry says — the per-colour deltas
    and the probed counter totals and worst health rank — and the frame
    built from it is what the engine once read off the registry."""
    hub, sampler, engine = _bound(default_objectives())
    hub.observe("commit_latency", 5.0, colour="c1", node="n0")
    hub.observe("commit_latency", 7.0, colour="c2", node="n1")
    hub.count("actions_committed_total", colour="c1")
    hub.count("actions_aborted_total", 2.0, colour="c2")
    hub.count("audit_findings_total")
    hub.metrics.gauge("cluster_health", node="n1").set(2.0)
    hub.metrics.gauge("cluster_health", node="n2").set(1.0)

    point = sampler.sample()
    assert point["gauges"] == {
        "audit_findings_total": 1.0, "introspect_drift_total": 0.0,
        "cluster_health": 2.0, "cluster_health_node": "n1"}
    engine.catch_up()
    assert _measures(engine) == {
        "commit-latency": (2, 12.0), "abort-rate": (2.0, 1.0),
        "audit-findings": (1.0,), "introspect-drift": (0.0,),
        "cluster-health": (2.0, "n1")}


def test_measure_respects_colour_restriction():
    hub, sampler, engine = _bound([
        _latency_objective(colour="c1"),
        Objective("ab", "abort_rate", colour="c1", target=0.25)])
    hub.observe("commit_latency", 5.0, colour="c1")
    hub.observe("commit_latency", 100.0, colour="c2")
    hub.count("actions_committed_total", colour="c1")
    hub.count("actions_aborted_total", 9.0, colour="c2")
    sampler.sample()
    engine.catch_up()
    assert _measures(engine) == {"lat": (1, 5.0), "ab": (0.0, 1.0)}


def test_attached_engine_frames_follow_sampler_points():
    """A view: no listener and no subscription; each catch-up judges the
    points taken since the last, and a decimation since then has the
    folded timeline judged again from its start."""
    hub = Observability()
    routes = hub.bus._routes
    sampler = hub.bind(TimeSeriesSampler(interval=1.0, max_points=5))
    engine = hub.bind(SLOEngine())
    assert hub.bus._routes == routes
    assert sampler._point_listeners == []
    for _ in range(3):
        sampler.sample()
    assert engine.frames == 0
    engine.catch_up()
    assert engine.frames == 3
    sampler.sample()
    assert engine.dump()["frames"] == 4
    sampler.sample()                   # the fifth point decimates to three
    assert sampler.decimations == 1
    engine.catch_up()
    assert engine.frames == len(sampler.points) == 3


# -- cluster integration -------------------------------------------------------

def test_observe_slo_alone_yields_a_bound_sampler():
    cluster = Cluster(seed=1)
    cluster.add_node("a")
    layers = cluster.observe(slo=True)
    assert list(layers) == ["history", "timeline", "slo"]

    def idle():
        yield Timeout(12.0)

    cluster.run_process("a", idle())
    # the sampler it brought along is on the cluster's clock and is the
    # engine's: one frame per point
    assert len(layers["timeline"].points) == 2
    layers["slo"].catch_up()
    assert layers["slo"].frames == 2


def test_observe_rejects_unknown_layers_and_late_options():
    cluster = Cluster(seed=1)
    with pytest.raises(ClusterError, match="unknown observability layer"):
        cluster.observe(flightrecorder=True)
    cluster.observe(timeline=True)
    cluster.observe(timeline=True)            # asking again: no-op
    with pytest.raises(RuntimeError, match="already bound"):
        cluster.observe(timeline={"interval": 1.0})


#: the five layers of ``_matrix_cluster`` with their options
_MATRIX_LAYERS = {
    "timeline": True,
    "flight_recorder": {"seed": 11},
    "postmortem": True,
    "introspection": {"interval": 10.0, "probe_timeout": 4.0},
    "slo": {"objectives": default_objectives(latency_target=50.0)},
}


def _matrix_cluster(seed=11, calls=(tuple(_MATRIX_LAYERS),), **options):
    """A cluster with all five obs layers on; ``calls`` lists the section
    names each successive ``observe`` call asks for, ``options`` replaces
    a layer's."""
    cluster = Cluster(seed=seed)
    for name in ("a", "b"):
        cluster.add_node(name)
    layers = dict(_MATRIX_LAYERS, **options)
    for names in calls:
        cluster.observe(**{name: layers[name] for name in names})
    engine = cluster.obs.layers["slo"]
    client = cluster.client("a")

    def app():
        ref = yield from client.create("b", "counter", value=0)
        for index in range(8):
            action = client.top_level(f"t{index}")
            yield from client.invoke(action, ref, "increment", 1)
            yield from client.commit(action)
            yield Timeout(10.0)

    cluster.run_process("a", app())
    return cluster, engine


@pytest.mark.parametrize("calls", [
    (("timeline", "flight_recorder", "postmortem", "introspection", "slo"),),
    (("slo", "introspection", "postmortem", "flight_recorder", "timeline"),),
    (("timeline",), ("flight_recorder",), ("postmortem",),
     ("introspection",), ("slo",)),
    (("slo",), ("introspection",), ("postmortem",), ("flight_recorder",),
     ("timeline",)),
    (("postmortem",), ("slo",), ("flight_recorder",), ("timeline",),
     ("introspection",)),
    (("introspection", "slo"), ("postmortem", "flight_recorder")),
    (("slo",),),
    (("slo",), ("flight_recorder",)),
], ids=lambda calls: "+".join(",".join(names) for names in calls))
def test_no_order_of_observe_calls_is_wrong(tmp_path, calls):
    """Satellite: whatever the order or number of ``observe`` calls, the
    same layers come up, ``slo`` brings its sampler (and that the history
    it samples by colour), and the stock objectives carry cluster-health
    iff an inspector is among them."""
    cluster, engine = _matrix_cluster(calls=calls, slo=True)
    asked = {name for names in calls for name in names}
    expected = sorted(asked | {"timeline"})
    assert sorted(cluster.obs.layers) == sorted(expected + ["history"])
    names = [objective.name for objective in engine.objectives]
    assert names == ["commit-latency", "abort-rate", "audit-findings",
                     "introspect-drift"] + (
        ["cluster-health"] if "introspection" in asked else [])
    document = cluster.obs.save(str(tmp_path / "dump.json"))
    assert engine.frames > 0
    assert sorted(document["extra"]) == expected
    assert [row["name"] for row in
            document["extra"]["slo"]["objectives"]] == names


def test_cluster_slo_evaluates_on_the_sampler_clock():
    cluster, engine = _matrix_cluster()
    assert cluster.obs.layers["slo"] is engine
    engine.catch_up()
    assert engine.frames > 0
    status = {row["objective"]: row["state"]
              for row in engine.window_status()}
    # a tiny clean run meets every objective (or has no data yet)
    assert all(state in ("ok", "no-data") for state in status.values())
    assert engine.breach_total == 0


def test_save_round_trips_all_five_attach_points(tmp_path):
    """Satellite: every obs layer rides one dump without key collisions,
    and every console can read the result back."""
    cluster, _engine = _matrix_cluster()
    path = str(tmp_path / "matrix.trace.json")
    cluster.obs.save(path)
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)

    assert sorted(document["extra"]) == [
        "flight_recorder", "introspection", "postmortem", "slo", "timeline"]
    assert document["extra"]["slo"]["breaches"] == []
    assert document["extra"]["slo"]["frames"] > 0
    assert document["extra"]["timeline"]["points"]
    assert document["extra"]["introspection"]["probes"] > 0

    # all six consoles accept the one dump with their clean exit code
    assert report_main([path]) == 0
    assert audit_main([path]) == 0
    assert why_main([path, "--aborts"]) == 0
    assert top_main([path]) == 0
    assert slo_main([path]) == 0


# -- offline evaluation --------------------------------------------------------

def _burning_points(mean, frames=4, committed=2.0):
    points = []
    for index in range(frames):
        points.append({
            "tick": float(10 * (index + 1)),
            "colours": {"c1": {
                "commit_latency_count": 2.0,
                "commit_latency_mean": mean,
                "committed": committed,
            }},
        })
    return points


def _probed(points, findings):
    """``points`` with an ``audit_findings_total`` gauge per point."""
    return [dict(point, gauges={"audit_findings_total": total})
            for point, total in zip(points, findings)]


def test_evaluate_timeline_rebuilds_frames_from_points():
    objectives = [_latency_objective(short_window=2, long_window=3)]
    hot = evaluate_timeline(_burning_points(mean=30.0), objectives)
    assert [entry["objective"] for entry in hot.breaches] == ["lat"]
    cool = evaluate_timeline(_burning_points(mean=5.0), objectives)
    assert cool.breaches == []
    # a zero objective reads its probed counter; unprobed, it has no data
    find = [Objective("find", "zero", metric="audit_findings_total")]
    assert evaluate_timeline(_burning_points(mean=30.0), find).breaches == []
    tripped = evaluate_timeline(
        _probed(_burning_points(mean=30.0), (0.0, 0.0, 1.0, 1.0)), find)
    assert [(entry["objective"], entry["start_tick"])
            for entry in tripped.breaches] == [("find", 30.0)]


# -- the slo console -----------------------------------------------------------

def test_slo_cli_judges_timeline_and_probed_counters(tmp_path, capsys):
    document = {"extra": {"timeline": {"points": _probed(
        _burning_points(mean=30.0), (0.0, 1.0, 1.0, 1.0))}}}
    path = tmp_path / "old.trace.json"
    path.write_text(json.dumps(document))

    assert slo_main([str(path), "--latency-target", "5", "--json"]) == 2
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["points"] == 4
    breached = {entry["objective"] for entry in verdict["breaches"]}
    assert breached == {"commit-latency", "audit-findings"}

    # generous target: the latency breach goes away, the finding stays
    assert slo_main([str(path), "--latency-target", "1000"]) == 2
    assert "audit-findings" in capsys.readouterr().out


def test_slo_cli_judges_by_the_objectives_the_dump_saved(tmp_path, capsys):
    """The saved objectives win over the flags; ``--objectives`` over
    both."""
    strict = [_latency_objective(target=5.0, short_window=2,
                                 long_window=3).to_dict()]
    path = tmp_path / "saved.trace.json"
    path.write_text(json.dumps({"extra": {
        "slo": {"objectives": strict},
        "timeline": {"points": _burning_points(mean=10.0)}}}))
    assert slo_main([str(path), "--latency-target", "1000", "--json"]) == 2
    verdict = json.loads(capsys.readouterr().out)
    assert [entry["objective"] for entry in verdict["breaches"]] == ["lat"]
    relaxed = tmp_path / "relaxed.json"
    relaxed.write_text(json.dumps([dict(strict[0], target=500.0)]))
    assert slo_main([str(path), "--objectives", str(relaxed)]) == 0
    # without saved objectives, the flags' stock set judges: 10 < 25
    bare = tmp_path / "bare.trace.json"
    bare.write_text(json.dumps({"extra": {
        "timeline": {"points": _burning_points(mean=10.0)}}}))
    assert slo_main([str(bare)]) == 0


def test_slo_cli_custom_objectives_file(tmp_path):
    dump = tmp_path / "run.trace.json"
    dump.write_text(json.dumps({
        "metrics": {"counters": []},
        "extra": {"timeline": {"points": _burning_points(mean=30.0)}},
    }))
    strict = tmp_path / "strict.json"
    strict.write_text(json.dumps([
        {"name": "lat", "kind": "latency", "metric": "commit_latency",
         "target": 5.0, "short_window": 2, "long_window": 3}]))
    relaxed = tmp_path / "relaxed.json"
    relaxed.write_text(json.dumps([
        {"name": "lat", "kind": "latency", "metric": "commit_latency",
         "target": 500.0, "short_window": 2, "long_window": 3}]))
    assert slo_main([str(dump), "--objectives", str(strict)]) == 2
    assert slo_main([str(dump), "--objectives", str(relaxed)]) == 0


def test_slo_cli_rejects_bad_objectives_file(tmp_path, capsys):
    dump = tmp_path / "run.trace.json"
    dump.write_text(json.dumps({"metrics": {"counters": []}}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"name": "x", "kind": "bogus"}]))
    assert slo_main([str(dump), "--objectives", str(bad)]) == 1
    assert "cannot load objectives" in capsys.readouterr().err
    assert slo_main([str(dump), "--objectives",
                     str(tmp_path / "missing.json")]) == 1


def test_slo_cli_needs_something_to_evaluate(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"spans": [], "metrics": {"counters": []}}))
    assert slo_main([str(empty)]) == 1
    assert "nothing to evaluate" in capsys.readouterr().err

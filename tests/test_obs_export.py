"""Exporters: Chrome trace schema, save/load round-trip, report CLI."""

import json

from repro.cluster.cluster import Cluster
from repro.obs import Tracer, chrome_trace, dump, span_tree, text_report
from repro.obs.__main__ import main as obs_main


def report_main(argv):
    return obs_main(["report", *argv])


def run_two_node_commit():
    cluster = Cluster(seed=3)
    cluster.observe(history=True)  # the exporters render retained spans
    cluster.add_node("alpha")
    cluster.add_node("beta")
    client = cluster.client("alpha")

    def app():
        ref = yield from client.create("beta", "counter", value=0)
        action = client.top_level("transfer")
        yield from client.invoke(action, ref, "increment", 5)
        yield from client.commit(action)

    cluster.run_process("alpha", app())
    return cluster


def test_chrome_trace_schema_and_roundtrip(tmp_path):
    cluster = run_two_node_commit()
    document = cluster.obs.chrome_trace()

    assert document["displayTimeUnit"] == "ms"
    events = document["traceEvents"]
    assert events, "empty chrome trace"

    metadata = [e for e in events if e["ph"] == "M"]
    names = {e["args"]["name"] for e in metadata}
    assert {"alpha", "beta"} <= names
    assert all(e["name"] == "process_name" for e in metadata)

    complete = [e for e in events if e["ph"] == "X"]
    for event in complete:
        assert set(event) >= {"name", "cat", "ts", "dur", "pid", "tid", "args"}
        assert event["dur"] >= 0
        assert "span_id" in event["args"]

    # the parent/child tree survives the export: parent ids resolve and the
    # connected tree includes spans from more than one pid (= node).
    by_id = {e["args"]["span_id"]: e for e in complete}
    root = next(e for e in complete if e["name"] == "action:transfer")
    tree_pids = set()
    for event in complete:
        if event["args"]["trace_id"] != root["args"]["trace_id"]:
            continue
        tree_pids.add(event["pid"])
        parent_id = event["args"]["parent_id"]
        if parent_id is not None:
            assert parent_id in by_id
    assert len(tree_pids) >= 2

    # and it is valid JSON end-to-end
    path = tmp_path / "chrome.json"
    path.write_text(json.dumps(document))
    assert json.loads(path.read_text()) == document


def test_save_and_load_trace_roundtrip(tmp_path):
    """``Observability.save`` -> ``dump.load`` is the identity."""
    cluster = run_two_node_commit()
    path = tmp_path / "run.trace.json"
    saved = cluster.obs.save(str(path), extra={"scenario": "unit"})
    [loaded] = dump.load([str(path)])
    assert loaded == saved
    assert loaded["format"] == "repro-obs/1"
    assert loaded["extra"]["scenario"] == "unit"
    assert any(s["name"] == "action:transfer" for s in loaded["spans"])
    assert loaded["metrics"]["counters"]


def test_span_tree_renders_nesting_from_dicts():
    tracer = Tracer()
    tracer.retain()
    root = tracer.start_span("outer", node="n1")
    child = tracer.start_span("inner", parent=root, node="n2")
    child.finish()
    root.finish()
    rendering = span_tree(tracer)
    lines = rendering.splitlines()
    assert lines[0].startswith("outer @n1")
    assert lines[1].startswith("  inner @n2")
    # filters to one trace
    other = tracer.start_span("stray")
    other.finish()
    assert "stray" not in span_tree(tracer, trace_id=root.trace_id)


def test_text_report_formats_all_sections():
    cluster = run_two_node_commit()
    report = text_report(cluster.metrics_dump())
    assert "== counters ==" in report
    assert "== histograms ==" in report
    assert "actions_committed_total" in report
    assert "twopc_prepare_time" in report


def test_report_cli_full_document(tmp_path, capsys):
    cluster = run_two_node_commit()
    path = tmp_path / "run.trace.json"
    cluster.obs.save(str(path))
    assert report_main([str(path), "--timeline"]) == 0
    out = capsys.readouterr().out
    assert "# Metrics" in out
    assert "# Spans" in out
    assert "# Timeline" in out
    assert "action:transfer" in out


def test_report_cli_bare_metrics_dump(tmp_path, capsys):
    cluster = run_two_node_commit()
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps(cluster.metrics_dump()))
    assert report_main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "# Metrics" in out
    assert "# Spans" not in out


"""Quick self-check of the benchmark harness (outside tier-1 ``testpaths``).

Run with ``python -m pytest benchmarks/e2e -q``.  One ``--quick`` suite
(every workload at 1/20 size, 1 untraced + 1 traced run, traces dumped) is
shared by the tests, which validate the metric names and units against
``BENCHMARK.json``, the span schema of the dumps, and that tracing leaves
nothing behind.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
for entry in (REPO_ROOT / "src", REPO_ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from benchmarks.e2e import compare, metrics, runner, workloads  # noqa: E402
from benchmarks.e2e.metrics import LAYERS  # noqa: E402
from benchmarks.e2e.tracing import Tracer  # noqa: E402

SEED = 3


def _harness(*args, timeout=600):
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", *args], cwd=REPO_ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=timeout)


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "quick.json"
    done = _harness("--quick", "--seed", str(SEED), "--out", str(out))
    assert done.returncode == 0, done.stderr
    return done.stdout, json.loads(out.read_text()), out.parent


def test_benchmark_json_lists_exactly_the_harness_tables():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["run_seconds"] == runner.DEFAULT_SECONDS
    assert spec["workloads"] == [{"name": w.name, "why": w.why}
                                 for w in workloads.WORKLOADS]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_quick_suite_reports_every_metric_with_its_unit(quick):
    stdout, document, _ = quick
    assert document["schema"] == metrics.SCHEMA
    assert list(document["workloads"]) == [w.name for w in workloads.WORKLOADS]
    for name, entry in document["workloads"].items():
        assert {k: v["unit"] for k, v in entry["end_to_end"].items()} \
            == metrics.END_TO_END_UNITS, name
        assert {k: v["unit"] for k, v in entry["per_layer"].items()} \
            == metrics.PER_LAYER_UNITS, name
        for metric, row in entry["end_to_end"].items():
            assert row["median"] > 0, (name, metric)  # never zero
        assert entry["committed"] == entry["operations"], name
    for metric in list(metrics.END_TO_END_UNITS) + list(metrics.PER_LAYER_UNITS):
        assert metric in stdout


def test_failures_only_where_the_workload_injects_them(quick):
    _, document, _ = quick
    for name in ("steady_2pc", "read_mostly", "commute_hot"):
        entry = document["workloads"][name]
        assert entry["attempts"] == entry["operations"], name
        assert entry["per_layer"]["harness.failed_share"]["value"] == 0.0


def test_shares_sum_to_one_and_most_wall_is_attributed(quick):
    _, document, _ = quick
    for name, entry in document["workloads"].items():
        values = {k: v["value"] for k, v in entry["per_layer"].items()}
        total = sum(values[f"{layer}.share"] for layer in LAYERS
                    if layer != "harness")
        total += values["harness.unattributed_share"]
        total += values["harness.idle_share"]
        assert total == pytest.approx(1.0, abs=0.02), name
        assert values["harness.unattributed_share"] <= 0.15, name
        assert values["harness.trace_overhead"] > 0, name


def test_span_schema_of_every_dump(quick):
    _, document, out_dir = quick
    for name, entry in document["workloads"].items():
        path = out_dir / f"trace-{name}-seed{SEED}.jsonl"
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(spans) == entry["spans"] > 0, name
        children = [0.0] * len(spans)
        for index, span in enumerate(spans):
            assert set(span) == {"id", "name", "layer", "start", "end",
                                 "parent", "action"}, name
            assert span["id"] == index and span["layer"] in LAYERS
            assert span["end"] >= span["start"]
            parent = span["parent"]
            assert -1 <= parent < index, (name, span)  # parents resolve
            if parent >= 0:
                above = spans[parent]
                assert above["start"] <= span["start"]
                assert span["end"] <= above["end"]
                children[parent] += span["end"] - span["start"]
        for span, covered in zip(spans, children):
            # no negative self time (dump times are rounded to 1 ns)
            assert span["end"] - span["start"] - covered >= -0.01, (name, span)
        # spans of one request share its identifier, across layers
        by_action = {}
        for span in spans:
            if span["action"] is not None:
                by_action.setdefault(span["action"], set()).add(span["layer"])
        assert any({"client", "server"} <= layers
                   for layers in by_action.values()), name


def test_tracer_restores_every_wrapped_attribute():
    deployment = workloads.deploy(workloads.BY_NAME["steady_2pc"], SEED)
    cluster = deployment.cluster
    wrapped = [cluster.kernel, cluster.network, cluster.obs, cluster.obs.bus]
    for name in cluster.nodes:
        wrapped += [cluster.nodes[name], cluster.nodes[name].wal,
                    cluster.nodes[name].stable_store,
                    cluster.transports[name], cluster.servers[name].registry,
                    cluster.servers[name].edge_chaser]
    wrapped += deployment.clients
    before = [dict(vars(obj)) for obj in wrapped]
    tracer = Tracer()
    tracer.install(cluster, deployment.clients)
    assert "send" in vars(cluster.network)
    measured = workloads.measure(deployment, SEED, operations=40)
    tracer.uninstall()
    workloads.check(deployment, measured)
    assert tracer.open_spans() == 0
    for obj, attrs in zip(wrapped, before):
        assert set(vars(obj)) == set(attrs), obj
    assert cluster.network.send.__func__ is type(cluster.network).send


def test_untraced_run_never_loads_the_tracer():
    done = _harness("--workload", "steady_2pc", "--seed", str(SEED),
                    "--seconds", "0.2", "--trace", "0", "--raw")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["tracing_loaded"] is False
    assert set(result["metrics"]) == set(metrics.END_TO_END_UNITS)


def test_driver_line_has_exactly_the_contract_keys():
    done = _harness("--workload", "commute_hot", "--seed", str(SEED),
                    "--seconds", "0.2", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(metrics.PER_LAYER_UNITS)
    for row in result["metrics"].values():
        assert set(row) == {"value", "unit"}


def test_compare_verdicts(quick, capsys):
    _, document, out_dir = quick
    base = {"median": 10.0, "values": [9.9, 10.0, 10.1], "better": "lower",
            "bound": 0.10}
    assert compare.verdict(base, dict(base)) == "unchanged"
    assert compare.verdict(base, {**base, "median": 12.0,
                                  "values": [11.9, 12.0, 12.1]}) == "regressed"
    assert compare.verdict(base, {**base, "median": 8.0,
                                  "values": [7.9, 8.0, 8.1]}) == "improved"
    assert compare.verdict(base, {**base, "median": 11.5,
                                  "values": [9.5, 11.5, 12.5]}) == "unresolved"
    higher = {**base, "better": "higher"}
    assert compare.verdict(higher, {**higher, "median": 8.0,
                                    "values": [7.9, 8.0, 8.1]}) == "regressed"
    # setup_s: within the absolute floor reads unchanged, whatever the ratio
    setup = {**base, "median": 0.008, "values": [0.007, 0.008, 0.012]}
    slower = {**setup, "median": 0.012, "values": [0.011, 0.012, 0.013]}
    assert compare.verdict(setup, slower) == "unresolved"
    assert compare.verdict(setup, slower, compare.SETUP_FLOOR_S) == "unchanged"
    path = out_dir / "quick.json"
    assert compare.main(str(path), str(path)) == 0  # a document vs itself
    table = capsys.readouterr().out
    assert "steady_2pc" in table and "commits_per_s" in table
    assert "regressed (" not in table and "unresolved (" not in table
    # a change that drops a workload or a metric does not pass silently
    dropped = json.loads(json.dumps(document))
    del dropped["workloads"]["lossy_crash"]
    del dropped["workloads"]["steady_2pc"]["end_to_end"]["msgs_per_commit"]
    rows = compare.compare(document, dropped)
    missing = [(w, m) for w, m, _, _, outcome in rows if outcome == "missing"]
    assert ("steady_2pc", "msgs_per_commit") in missing
    assert sum(w == "lossy_crash" for w, _ in missing) \
        == len(metrics.END_TO_END)
    short = out_dir / "dropped.json"
    short.write_text(json.dumps(dropped))
    assert compare.main(str(path), str(short)) == 1

"""The exit-code contract every obs CLI honours, asserted in one place.

All seven ``python -m repro.obs <command>`` consoles — ``report``,
``audit``, ``perf``, ``why``, ``top``, ``slo`` and ``soak`` — speak the
same language to CI and shell scripts:

* **0** — input understood, nothing demands attention;
* **1** — unusable input (missing file, malformed JSON, wrong shape);
* **2** — input understood and something *does* demand attention
  (auditor findings, a gated perf regression, attribution gaps,
  introspection drift / a stalled server).

Each case builds the smallest artifact that drives one CLI to one code.
This file replaces the per-CLI exit-code one-offs that used to live in
``test_obs_audit`` / ``test_obs_postmortem`` / ``test_obs_perf`` /
``test_obs_export``; CLI-specific *content* assertions stay with their
suites.
"""

import json

import pytest

import re
from pathlib import Path

from repro.obs import History
from repro.obs.__main__ import COMMANDS, main
from repro.obs.soak import SoakRunner
from repro.runtime.runtime import LocalRuntime
from repro.stdobjects import Counter


def _save_run(tmp_path, name, violate=False):
    """A real (tiny) observed run, optionally with a 2PL violation."""
    runtime = LocalRuntime()
    hub = runtime.obs
    hub.bind(History())  # the consoles read the run's spans and events
    with runtime.top_level(name="t") as action:
        counter = Counter(runtime, value=0)
        counter.increment(1)
        if violate:
            runtime.locks.release_action(action.uid)
            counter.increment(1)
    path = tmp_path / name
    hub.save(str(path))
    return str(path)


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _gapped_dump(tmp_path):
    """One abort whose cause the postmortem taxonomy cannot place."""
    events = [
        ("action.begin", {"action": "a1", "name": "a1", "parent": "",
                          "colours": "c", "node": "local"}),
        ("action.failure", {"action": "a1", "cause": "meteor-strike",
                            "op": "op"}),
        ("action.end", {"action": "a1", "name": "a1", "outcome": "aborted",
                        "colours": "c", "node": "local"}),
    ]
    return _write(tmp_path, "gapped.json", {
        "format": "repro-obs/1", "spans": [], "metrics": {"counters": []},
        "events": [{"tick": float(i), "kind": kind, "labels": labels}
                   for i, (kind, labels) in enumerate(events)],
    })


def _introspection_dump(tmp_path, name, drift):
    """An obs dump carrying a minimal embedded introspection section."""
    snapshot = {
        "tick": 10.0, "overall": "degraded" if drift else "healthy",
        "servers": {"n1": None}, "waits_for": [],
        "health": {"n1": {"verdict": "degraded" if drift else "healthy",
                          "causes": ["drift"] if drift else []}},
        "drift": list(drift),
        "coordinator": {"clients": 1, "live_actions": 0,
                        "txns_tracked": 0, "reaper_backlog": {}},
    }
    return _write(tmp_path, name, {
        "extra": {"introspection": {
            "probes": 1, "drift": list(drift), "snapshots": [snapshot],
            "overall": snapshot["overall"],
        }},
    })


def _bench(tmp_path, sub, metrics):
    root = tmp_path / sub
    root.mkdir(exist_ok=True)
    (root / "BENCH_s.json").write_text(json.dumps(
        {"scenario": "s", "metrics": metrics}))
    return str(root)


_DRIFT = [{"kind": "epoch-drift", "node": "n1", "tick": 10.0,
           "message": "server n1 reports epoch 2 but live action a1 "
                      "first met it at epoch 1"}]


def _report_argv(tmp_path, code):
    if code == 0:
        return [_save_run(tmp_path, "clean.json")]
    if code == 1:
        return [str(tmp_path / "missing.json")]
    return [_save_run(tmp_path, "red.json", violate=True)]


def _audit_argv(tmp_path, code):
    if code == 0:
        return [_save_run(tmp_path, "clean.json")]
    if code == 1:
        return [_write(tmp_path, "bare.json", {"metrics": {}})]
    return [_save_run(tmp_path, "red.json", violate=True)]


def _perf_argv(tmp_path, code):
    if code == 1:
        empty = tmp_path / "empty"
        empty.mkdir(exist_ok=True)
        return ["compare", "--baseline", str(empty), "--current", str(empty)]
    baseline = _bench(tmp_path, "base", {"x": 10.0})
    current = _bench(tmp_path, "run", {"x": 10.2 if code == 0 else 20.0})
    return ["compare", "--baseline", baseline, "--current", current]


def _why_argv(tmp_path, code):
    if code == 0:
        return [_save_run(tmp_path, "clean.json"), "--aborts"]
    if code == 1:
        return [_write(tmp_path, "list.json", [1, 2])]
    return [_gapped_dump(tmp_path), "--aborts"]


def _top_argv(tmp_path, code):
    if code == 0:
        return [_introspection_dump(tmp_path, "healthy.json", drift=[])]
    if code == 1:
        return [_write(tmp_path, "list.json", [1, 2])]
    return [_introspection_dump(tmp_path, "drifted.json", drift=_DRIFT)]


def _timeline(mean):
    """Four sampler points, one commit of latency ``mean`` each."""
    return {"extra": {"timeline": {"points": [
        {"tick": 10.0 * tick, "colours": {"c": {
            "commit_latency_count": 1.0, "commit_latency_mean": mean}}}
        for tick in range(1, 5)]}}}


def _slo_argv(tmp_path, code):
    # judged by the stock objectives: a 25-tick commit-latency target
    if code == 0:
        return [_write(tmp_path, "green.json", _timeline(5.0))]
    if code == 1:
        return [str(tmp_path / "missing.json")]
    return [_write(tmp_path, "breached.json", _timeline(100.0))]


def _soak_argv(tmp_path, code):
    # 0/2 run real (tiny) soak arms in memory; 1 is unusable input
    if code == 0:
        return ["--arm", "clean", "--horizon", "240",
                "--segment-every", "80", "--interval", "10", "--no-rotate"]
    if code == 1:
        return ["--arm", "chaotic-neutral"]
    return ["--arm", "faulty", "--horizon", "600",
            "--segment-every", "200", "--interval", "10", "--no-rotate",
            "--burst-start", "150", "--burst-duration", "200",
            "--surge", "12"]


_CLIS = {
    "report": _report_argv,
    "audit": _audit_argv,
    "perf": _perf_argv,
    "why": _why_argv,
    "top": _top_argv,
    "slo": _slo_argv,
    "soak": _soak_argv,
}


@pytest.mark.parametrize("code", [0, 1, 2])
@pytest.mark.parametrize("cli", sorted(_CLIS))
def test_obs_cli_exit_code_contract(cli, code, tmp_path, capsys):
    assert main([cli, *_CLIS[cli](tmp_path, code)]) == code
    captured = capsys.readouterr()
    if code == 1:
        # operational errors go to stderr, never a traceback to stdout
        assert captured.err
        assert "Traceback" not in captured.err


#: every console that reads dumps, as the argv prefix before the path
_DUMP_READERS = {
    "report": ["report"], "audit": ["audit"], "why": ["why"],
    "top": ["top"], "perf": ["perf", "timeline"], "slo": ["slo"],
}


@pytest.mark.parametrize("cli", sorted(_DUMP_READERS))
def test_wrong_shaped_section_is_unusable_input(cli, tmp_path, capsys):
    """A section of the wrong JSON type is exit 1, never a traceback."""
    bad = _write(tmp_path, "bad.json", {"metrics": [], "extra": []})
    assert main([*_DUMP_READERS[cli], bad]) == 1
    assert "\"metrics\" must be an object" in capsys.readouterr().err


@pytest.mark.parametrize("cli", ["why", "top", "perf"])
def test_every_dump_reader_takes_a_segment_directory(cli, tmp_path, capsys):
    """``report``/``audit``/``slo`` always did (``test_obs_soak``)."""
    out = str(tmp_path / "soak")
    SoakRunner(out_dir=out, arm="clean", seed=7, horizon=300,
               segment_every=100, sample_interval=10).run()
    assert main([*_DUMP_READERS[cli], out]) == 0
    captured = capsys.readouterr()
    assert captured.out and not captured.err


def test_command_table_matches_the_documented_layer_table():
    """docs/OBSERVABILITY.md's CLI column lists exactly the dispatcher's
    commands — the doc cannot advertise a console that does not exist."""
    doc = Path(__file__).resolve().parents[1] / "docs" / "OBSERVABILITY.md"
    rows = [line for line in doc.read_text(encoding="utf-8").splitlines()
            if re.match(r"\| \d\. ", line)]
    documented = {command for row in rows for command in
                  re.findall(r"`python -m repro\.obs (\w+)`", row)}
    assert len(rows) == 6
    assert documented == set(COMMANDS)

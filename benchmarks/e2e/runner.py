"""One run (what the benchmark driver calls) and the suite built from runs.

A *run* is one workload, one seed, one fresh process: deploy (several
times, for a steady ``setup_s``), one measured phase, the correctness
gate, then either the end-to-end metrics (untraced) or the per-layer
metrics (traced).  The *suite* is every workload x ``REPEATS`` untraced
runs + one traced run, each in its own subprocess, reduced to medians.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import metrics, workloads

REPO_ROOT = Path(__file__).resolve().parents[2]
#: the size knob: BENCHMARK.json's ``run_seconds`` (``--seconds``)
DEFAULT_SECONDS = 10.0
DEFAULT_SEED = 5
#: untraced runs per workload in the suite; ``--quick``: 1, at 1/20 size
REPEATS = 3
QUICK_DIVISOR = 20
#: an untraced run deploys again and again for about this long (3 to 25
#: times) and reports the median as ``setup_s``, as the benchmark contract
#: asks: a sim deployment takes 1-10 ms, too short to time once
SETUP_BUDGET_S = 1.0


def run_once(workload: workloads.Workload, seed: int, seconds: float,
             trace: bool, trace_dump: Optional[str] = None,
             reference: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """One run in this process; raises ``CorrectnessError`` if it is wrong.

    ``reference`` is the raw result of an untraced run of the same
    (workload, seed, size), which a traced run needs (the suite hands over
    one it already has; alone, the traced run makes it in a fresh process).
    """
    operations = workload.operations(seconds)
    if trace and reference is None:
        reference = run_child(workload.name, seed, seconds, trace=False)
    setup_times: List[float] = []
    while not trace and (len(setup_times) < 2 or (
            sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < 24)):
        spare = workloads.deploy(workload, seed)
        setup_times.append(spare.setup_s)
        spare.cluster.close()  # the asyncio loop owns file descriptors
        del spare
        gc.collect()
    deployment = workloads.deploy(workload, seed)
    setup_times.append(deployment.setup_s)
    tracer = None
    if trace:
        from .tracing import Tracer  # never imported by an untraced run
        tracer = Tracer()
        tracer.install(deployment.cluster, deployment.clients)
    try:
        measured = workloads.measure(deployment, seed, operations)
    finally:
        if tracer is not None:
            tracer.uninstall()
    stats = measured.stats
    if tracer is not None:
        if tracer.open_spans():
            raise workloads.CorrectnessError(
                f"{tracer.open_spans()} span(s) still open after the run")
        rows = tracer.aggregate()
        values = metrics.with_units(
            metrics.per_layer(deployment, measured, tracer, rows, reference),
            metrics.PER_LAYER_UNITS)
    else:
        values = metrics.with_units(
            metrics.end_to_end(measured, statistics.median(setup_times),
                               workloads.peak_rss_mb()),
            metrics.END_TO_END_UNITS)
    workloads.check(deployment, measured)
    deployment.cluster.close()
    result = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "operations": operations,
        "attempted": stats.operations, "failed": stats.failed,
        "attempts": stats.attempts, "committed": stats.committed,
        "aborts": dict(sorted(stats.aborts.items())),
        "wall_s": measured.wall_s, "cpu_s": measured.cpu_s,
        "cpu_scale": measured.cpu_scale,
        "reference_slices": measured.reference_slices,
        "wall_at_reference_s":
            measured.at_reference(measured.wall_s, measured.cpu_scale),
        **metrics.demoted(measured),
        "tracing_loaded": f"{__package__}.tracing" in sys.modules,
        "metrics": values,
    }
    if tracer is not None:
        result["spans"] = len(tracer.start)
        result["layers"] = rows
        if trace_dump:
            Path(trace_dump).parent.mkdir(parents=True, exist_ok=True)
            tracer.dump(trace_dump, measured.started)
    return result


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              extra: Optional[List[str]] = None) -> Dict[str, Any]:
    """One run in a fresh subprocess; returns its ``--raw`` result."""
    command = [sys.executable, "-m", "benchmarks.e2e",
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(int(trace)),
               "--raw"] + (extra or [])
    done = subprocess.run(command, cwd=REPO_ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def contract_line(result: Dict[str, Any]) -> str:
    """The benchmark driver's result object, as one line of JSON."""
    return json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    })


def run_suite(seed: int, seconds: float, quick: bool,
              out_dir: Path) -> Dict[str, Any]:
    """Every workload: ``REPEATS`` untraced runs + one traced run.

    ``quick``: 1/20 of the size, one untraced run, the spans dumped.
    """
    repeats = REPEATS
    if quick:
        seconds, repeats = seconds / QUICK_DIVISOR, 1
    document: Dict[str, Any] = {
        "schema": metrics.SCHEMA,
        "seed": seed, "seconds": seconds, "repeats": repeats,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "platform": platform.platform()},
        "workloads": {},
    }
    for workload in workloads.WORKLOADS:
        print(f"== {workload.name}: {workload.operations(seconds)} "
              f"operations, {repeats} untraced + 1 traced run", flush=True)
        runs = [run_child(workload.name, seed, seconds, trace=False)
                for _ in range(repeats)]
        # the traced run's reference: the untraced run of median wall
        reference = out_dir / f"reference-{workload.name}-seed{seed}.json"
        reference.write_text(json.dumps(
            sorted(runs, key=lambda run: run["wall_at_reference_s"])
            [len(runs) // 2]), encoding="utf-8")
        extra = ["--reference", str(reference)]
        if quick:
            extra += ["--trace-dump",
                      str(out_dir / f"trace-{workload.name}-seed{seed}.jsonl")]
        traced = run_child(workload.name, seed, seconds, trace=True,
                           extra=extra)
        reference.unlink()
        end_to_end = {}
        for name, unit, better, bound in metrics.END_TO_END:
            values = [run["metrics"][name]["value"] for run in runs]
            end_to_end[name] = {
                "median": statistics.median(values), "values": values,
                "unit": unit, "better": better, "bound": bound}
        document["workloads"][workload.name] = {
            "why": workload.why,
            "operations": runs[0]["operations"],
            "committed": runs[0]["committed"],
            "attempts": runs[0]["attempts"],
            "aborts": runs[0]["aborts"],
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
            "layers": traced["layers"],
            "spans": traced["spans"],
        }
        print_workload(workload.name, document["workloads"][workload.name])
    return document


def print_workload(name: str, entry: Dict[str, Any]) -> None:
    """Every metric of one workload, by name, with its unit."""
    print(f"-- {name}: end to end (median of {_repeats(entry)} untraced "
          f"run(s); latency over {entry['committed']} committed actions)")
    for metric, row in entry["end_to_end"].items():
        spread = (max(row["values"]) - min(row["values"])) / row["median"]
        print(f"   {metric:<22} {row['median']:>14.4f} {row['unit']:<6} "
              f"spread {spread:6.2%}  bound {row['bound']:.0%}")
    print(f"-- {name}: per layer (traced run, {entry['spans']} spans)")
    for metric, row in entry["per_layer"].items():
        print(f"   {metric:<38} {row['value']:>14.4f} {row['unit']}")


def _repeats(entry: Dict[str, Any]) -> int:
    return len(next(iter(entry["end_to_end"].values()))["values"])

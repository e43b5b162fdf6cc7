#!/usr/bin/env python3
"""Tour of the observability layer over a 2-node cluster run.

Runs a small banking workload (two transfers, one doomed action, one
glued-colour hand-off), then shows every exporter:

- the plain-text metrics report (per-colour commits/aborts, lock waits,
  2PC round latencies, message counts),
- the distributed span tree, stitched client -> transport -> server,
- the ASCII span timeline,
- a Chrome ``chrome://tracing`` / Perfetto JSON trace,
- a saved trace document replayed through ``python -m repro.obs report``,
- live introspection: a ClusterInspector probing the cluster through a
  partition (healthy -> degraded/stalled -> recovered) with the operator
  console frames rendered inline.

Run:  python examples/observability_tour.py
"""

import json
import tempfile
from pathlib import Path

from repro.cluster.cluster import Cluster
from repro.obs.introspect import render_snapshot
from repro.obs.__main__ import main as obs_main


def build_cluster():
    cluster = Cluster(seed=42)
    cluster.observe(history=True)  # keep spans, events, per-colour series
    cluster.add_node("teller")
    cluster.add_node("vault")
    return cluster


def workload(cluster):
    client = cluster.client("teller")

    def app():
        checking = yield from client.create("vault", "account", balance=100)
        savings = yield from client.create("vault", "account", balance=0)

        # two committed transfers — distributed actions over both accounts
        for index in range(2):
            action = client.top_level(f"transfer{index}")
            yield from client.invoke(action, checking, "withdraw", 10)
            yield from client.invoke(action, savings, "deposit", 10)
            yield from client.commit(action)

        # one aborted action: its updates never reach the stable store
        doomed = client.top_level("doomed")
        yield from client.invoke(doomed, checking, "deposit", 999)
        yield from client.abort(doomed)

        # a nested (same-colour) action: commit bequeaths its locks to the
        # parent, visible as colour_inherited_total in the metrics
        outer = client.top_level("outer")
        inner = client.atomic(outer, "inner")
        yield from client.invoke(inner, savings, "deposit", 1)
        yield from client.commit(inner)
        yield from client.commit(outer)

    cluster.run_process("teller", app())


def main() -> None:
    cluster = build_cluster()
    workload(cluster)

    print("=" * 72)
    print("1. metrics report")
    print("=" * 72)
    print(cluster.obs.report())

    print()
    print("=" * 72)
    print("2. distributed span trees (client and server nodes stitched)")
    print("=" * 72)
    print(cluster.obs.span_tree())

    print()
    print("=" * 72)
    print("3. span timeline for the first transfer")
    print("=" * 72)
    first = next(s for s in cluster.obs.tracer.snapshot()
                 if s.name == "action:transfer0")
    print(cluster.obs.span_timeline(width=56, trace_id=first.trace_id))

    out_dir = Path(tempfile.mkdtemp(prefix="repro-obs-"))
    chrome_path = out_dir / "tour.chrome.json"
    chrome_path.write_text(json.dumps(cluster.obs.chrome_trace(), indent=2))
    trace_path = out_dir / "tour.trace.json"
    cluster.obs.save(str(trace_path))
    print()
    print("=" * 72)
    print("4. exported artifacts")
    print("=" * 72)
    print(f"chrome trace (load in chrome://tracing or Perfetto): {chrome_path}")
    print(f"trace document:                                      {trace_path}")

    print()
    print("=" * 72)
    print(f"5. replayed via: python -m repro.obs report {trace_path.name} "
          "--metrics-only")
    print("=" * 72)
    obs_main(["report", str(trace_path), "--metrics-only"])

    print()
    print("=" * 72)
    print("6. live introspection: partition the vault, watch the verdict "
          "turn")
    print("=" * 72)
    inspector = cluster.observe(
        introspection={"interval": 0})["introspection"]
    frames = [("all links up", inspector.probe_once())]
    cluster.network.partition("teller", "vault")
    cluster.run(until=cluster.kernel.now + 1.0)
    frames.append(("teller/vault partitioned", inspector.probe_once()))
    cluster.network.heal_all()
    frames.append(("healed", inspector.probe_once()))
    for title, snapshot in frames:
        print(f"\n--- {title} ---")
        for line in render_snapshot(snapshot):
            print(line)
    print("\n(the same frames, plus drift injection, via: "
          "python -m repro.obs top --arm partition --watch)")


if __name__ == "__main__":
    main()

"""Console ``top``: the live-cluster operator console.

Usage::

    python -m repro.obs top                      # seeded demo cluster, text
    python -m repro.obs top --snapshot --json    # one machine-readable frame
    python -m repro.obs top --arm partition      # inject drift, exit 2
    python -m repro.obs top --watch --frames 4   # frame-by-frame console
    python -m repro.obs top dump.json --snapshot # inspect a saved dump

With a ``dump.json`` argument the console replays the ``introspection``
section a :class:`~repro.obs.introspect.ClusterInspector` embedded into an
``Observability.save`` dump (a soak segment directory replays as one
run: its segments' snapshot and drift windows, joined in order); without
one it builds the seeded demo cluster
(``--seed``/``--arm``) and probes it live.  ``--watch`` renders the
periodic snapshot ring frame by frame instead of just the latest state.

Exit codes follow the obs-CLI contract: 0 = clean (no drift, nothing
stalled), 1 = unusable input, 2 = drift recorded or a server left stalled.
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Dict, List

from repro.obs import dump
from repro.obs.introspect.render import render_drift, render_snapshot


def _exit_code(doc: Dict[str, Any]) -> int:
    snapshots = doc.get("snapshots") or []
    last = snapshots[-1] if snapshots else {}
    if doc.get("drift") or last.get("overall") == "stalled":
        return 2
    return 0


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the ``top`` console's arguments on ``parser``."""
    parser.description = ("Live cluster introspection console: per-server "
                          "health, hot objects, in-flight transactions, "
                          "waits-for, drift.")
    parser.add_argument("path", nargs="?", default=None,
                        help="obs dump with an embedded introspection "
                             "section; omit to probe the seeded demo cluster")
    parser.add_argument("--seed", type=int, default=0,
                        help="demo-cluster seed (default 0)")
    parser.add_argument("--arm", default="fault-free",
                        choices=("fault-free", "partition", "restart"),
                        help="demo fault arm (default fault-free)")
    parser.add_argument("--interval", type=float, default=10.0,
                        help="periodic probe interval in sim ticks")
    parser.add_argument("--snapshot", action="store_true",
                        help="print only the latest snapshot")
    parser.add_argument("--watch", action="store_true",
                        help="render the snapshot ring frame by frame")
    parser.add_argument("--frames", type=int, default=4, metavar="N",
                        help="frames to render with --watch (default 4)")
    parser.add_argument("--json", action="store_true",
                        help="print the result as JSON")


def run(args: argparse.Namespace, documents: List[Dict[str, Any]]) -> int:
    """Render the saved introspection section, or probe the demo cluster."""
    if args.path is not None:
        sections = dump.sections(documents, "introspection")
        if not sections:
            print(f"{args.path}: no introspection section — the run had no "
                  f"ClusterInspector (cluster.observe(introspection=True))")
            return 0
        doc = dict(sections[-1], **{
            key: [item for section in sections
                  for item in section.get(key) or []]
            for key in ("drift", "snapshots")})
    else:
        from repro.obs.introspect.demo import run_demo

        doc = run_demo(seed=args.seed, arm=args.arm,
                       interval=args.interval)["inspector"].dump()

    snapshots = doc.get("snapshots") or []
    if not snapshots:
        print("no snapshots recorded (the run ended before the first probe)")
        return _exit_code(doc)

    if args.json:
        payload: Any = snapshots[-1] if args.snapshot else doc
        print(json.dumps(payload, indent=2, sort_keys=True))
        return _exit_code(doc)

    if args.watch:
        for index, snapshot in enumerate(snapshots[-args.frames:]):
            if index:
                print()
            print(f"--- frame {index + 1} ---")
            for line in render_snapshot(snapshot):
                print(line)
    else:
        for line in render_snapshot(snapshots[-1]):
            print(line)
    if not args.snapshot:
        print()
        for line in render_drift(doc.get("drift") or []):
            print(line)
    return _exit_code(doc)

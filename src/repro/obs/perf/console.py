"""Console ``perf``: the perf gate and sampler-timeline rendering.

``compare`` diffs a directory of freshly produced ``BENCH_*.json``
scenario documents (see ``benchmarks/scenarios.py``) against the
checked-in baselines and exits non-zero on regression, so CI can gate
merges on simulated-time performance:

    python benchmarks/scenarios.py --out /tmp/bench
    python -m repro.obs perf compare --baseline . --current /tmp/bench

Entries under ``info`` are never gated; time, memory and wall latency are
measured by the repo benchmark, ``python3 -m benchmarks.e2e [--compare]``.

``timeline`` renders a sampler timeline (a raw ``sampler.dump()``
document, an ``Observability.save`` dump carrying ``extra.timeline``, or a
soak segment directory whose per-segment slices are joined in order) as
text sparklines, or as a self-contained HTML page with ``--html``:

    python -m repro.obs perf timeline run.trace.json
    python -m repro.obs perf timeline run.trace.json --html timeline.html

Exit codes: 0 — within tolerance / rendered; 2 — at least one gated
deviation (metric outside its band, metric vanished, scenario skipped);
1 — operational error (unreadable input, malformed JSON, no timeline).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List

from repro.obs.dump import DumpError, sections
from repro.obs.perf.compare import (
    DEFAULT_ABS_TOLERANCE,
    DEFAULT_REL_TOLERANCE,
    compare_trees,
    load_bench_files,
)
from repro.obs.perf.timeline_view import timeline_html, timeline_text


def _cmd_compare(args: argparse.Namespace) -> int:
    try:
        baselines = load_bench_files(args.baseline)
    except (OSError, ValueError) as exc:
        raise DumpError(f"cannot load baselines from {args.baseline}: "
                        f"{exc}") from exc
    try:
        runs = load_bench_files(args.current)
    except (OSError, ValueError) as exc:
        raise DumpError(f"cannot load run results from {args.current}: "
                        f"{exc}") from exc
    if not baselines and not runs:
        raise DumpError(f"no BENCH_*.json in {args.baseline} or "
                        f"{args.current}")

    deviations = compare_trees(args.baseline, args.current,
                               rel_tolerance=args.rel_tolerance,
                               abs_tolerance=args.abs_tolerance)
    failing = [d for d in deviations if d.failing]
    notices = [d for d in deviations if not d.failing]

    print(f"perf gate: {len(baselines)} baseline scenario(s), "
          f"{len(runs)} run scenario(s), tolerance "
          f"±{args.rel_tolerance:.0%}")
    for deviation in notices:
        print(f"  note: {deviation.describe()}")
    if failing:
        print(f"\n{len(failing)} regression(s):", file=sys.stderr)
        for deviation in failing:
            print(f"  FAIL: {deviation.describe()}", file=sys.stderr)
        return 2
    print("ok: all gated metrics within tolerance")
    return 0


def _cmd_timeline(args: argparse.Namespace,
                  documents: List[Dict[str, Any]]) -> int:
    # bare sampler.dump() documents, else the dumps' extra.timeline
    slices = [doc for doc in documents if "points" in doc] or [
        piece for piece in sections(documents, "timeline")
        if "points" in piece]
    if not slices:
        raise DumpError(f"{args.path}: no timeline — pass a sampler "
                        f"timeline document or a dump saved with a sampler "
                        f"attached")
    timeline = slices[0] if len(slices) == 1 else dict(
        slices[0], points=[point for piece in slices
                           for point in piece["points"]])
    if args.html:
        document = timeline_html(timeline, title=args.title or args.path)
        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(document)
        print(f"wrote {args.html}")
    else:
        print(timeline_text(timeline, width=args.width))
    return 0


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the ``perf`` console's sub-commands on ``parser``."""
    parser.description = "performance observatory tooling"
    commands = parser.add_subparsers(dest="command", required=True)

    compare = commands.add_parser(
        "compare", help="diff BENCH_*.json runs against checked-in baselines")
    compare.add_argument("--baseline", default=".",
                         help="directory with baseline BENCH_*.json files")
    compare.add_argument("--current", required=True,
                         help="directory with the candidate run's files")
    compare.add_argument("--rel-tolerance", type=float,
                         default=DEFAULT_REL_TOLERANCE,
                         help="two-sided relative tolerance band")
    compare.add_argument("--abs-tolerance", type=float,
                         default=DEFAULT_ABS_TOLERANCE,
                         help="absolute slack for near-zero baselines")

    timeline = commands.add_parser(
        "timeline", help="render a sampler timeline as text or HTML")
    timeline.add_argument("path", help="obs dump (extra.timeline), soak "
                                       "segment directory or a raw sampler "
                                       "timeline JSON")
    timeline.add_argument("--html", metavar="OUT", default=None,
                          help="write a self-contained HTML page here "
                               "instead of printing text")
    timeline.add_argument("--title", default=None,
                          help="HTML page title (defaults to the path)")
    timeline.add_argument("--width", type=int, default=60,
                          help="sparkline width for text output")


def run(args: argparse.Namespace, documents: List[Dict[str, Any]]) -> int:
    """Run the chosen sub-command."""
    if args.command == "compare":
        return _cmd_compare(args)
    return _cmd_timeline(args, documents)

"""Console ``slo``: judge saved sampler timelines against objectives.

Usage::

    python -m repro.obs slo run.trace.json               # one dump
    python -m repro.obs slo soak-out/                    # soak segment dir
    python -m repro.obs slo run.trace.json --json

The timeline points of the input, in segment order, are judged through
the frames a bound :class:`~repro.obs.slo.engine.SLOEngine` builds
(:func:`~repro.obs.slo.engine.evaluate_timeline`), by the objectives the
dumps saved under ``extra["slo"]`` — so a run and its dump get one
verdict.  ``--objectives FILE`` replaces them; a dump that saved none is
judged by the stock set with the ``--latency-target`` and
``--abort-budget`` flags.  Zero-tolerance and health objectives read the
gauges a bound engine probes into the timeline, and have no data without.

Exit codes follow the obs-CLI contract: 0 = objectives met, 1 = unusable
input, 2 = at least one breach.
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Dict, List

from repro.obs.dump import DumpError, sections
from repro.obs.slo.engine import evaluate_timeline
from repro.obs.slo.objectives import Objective, default_objectives


def _render(breaches: List[Dict[str, Any]],
            status: List[Dict[str, Any]], points: int) -> str:
    lines = [f"# SLO verdict over {points} timeline point(s)", ""]
    for row in status:
        burn = row.get("burn_short")
        burn_text = "-" if burn is None else f"{burn:.3f}"
        lines.append(f"  {row['objective']:<20} {row['state']:<10} "
                     f"burn {burn_text}")
    lines.append("")
    if not breaches:
        lines.append("objectives met: no breaches recorded")
        return "\n".join(lines)
    lines.append(f"{len(breaches)} breach(es):")
    for entry in breaches:
        end = entry["end_tick"]
        window = f"[{entry['start_tick']:g}, " + (
            "open]" if end is None else f"{end:g}]")
        lines.append(f"  {entry['objective']:<20} {window:<22} "
                     f"peak burn {entry['peak_burn']:.2f}x")
    return "\n".join(lines)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the ``slo`` console's arguments on ``parser``."""
    parser.description = ("Judge the sampler timelines of saved "
                          "observability dumps against service-level "
                          "objectives.")
    parser.add_argument("paths", nargs="+", metavar="path",
                        help="dump file(s) or a soak segment directory")
    parser.add_argument("--objectives", metavar="FILE", default=None,
                        help="JSON file with a list of objective dicts "
                             "(defaults to the ones the dumps saved)")
    parser.add_argument("--latency-target", type=float, default=25.0,
                        help="commit-latency target in ticks when the "
                             "dumps saved no objectives (default 25)")
    parser.add_argument("--abort-budget", type=float, default=0.25,
                        help="abort-rate ceiling when the dumps saved no "
                             "objectives (default 0.25)")
    parser.add_argument("--json", action="store_true",
                        help="print the verdict as JSON")


def _objectives(args: argparse.Namespace,
                documents: List[Dict[str, Any]]) -> List[Objective]:
    """The ``--objectives`` file's, else the first saved set, else the
    stock set with the flags' targets."""
    if args.objectives is not None:
        source = args.objectives
        try:
            with open(source, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise DumpError(f"cannot load objectives from {source}: "
                            f"{error}") from error
    else:
        source = "the dump"
        raw = next((section["objectives"]
                    for section in sections(documents, "slo")
                    if section.get("objectives")), None)
        if raw is None:
            return default_objectives(latency_target=args.latency_target,
                                      abort_budget=args.abort_budget)
    try:
        return [Objective.from_dict(entry) for entry in raw]
    except (TypeError, ValueError) as error:
        raise DumpError(f"cannot load objectives from {source}: "
                        f"{error}") from error


def run(args: argparse.Namespace, documents: List[Dict[str, Any]]) -> int:
    """Print the verdict over ``documents``; exit 2 on any breach."""
    objectives = _objectives(args, documents)
    points = [point for timeline in sections(documents, "timeline")
              for point in timeline.get("points", [])]
    if not points:
        raise DumpError("no sampler timeline in the input — nothing to "
                        "evaluate")
    engine = evaluate_timeline(points, objectives)
    breaches, status = engine.breaches, engine.window_status()
    if args.json:
        print(json.dumps({"points": len(points), "breaches": breaches,
                          "status": status}, indent=2, sort_keys=True))
    else:
        print(_render(breaches, status, len(points)))
    return 2 if engine.breach_total else 0

"""Console ``slo``: render saved SLO ledgers, or evaluate dumps offline.

Usage::

    python -m repro.obs slo run.trace.json               # saved ledger
    python -m repro.obs slo soak-out/                    # soak segment dir
    python -m repro.obs slo old.trace.json --evaluate    # no ledger? re-run
    python -m repro.obs slo run.trace.json --json

Two modes, picked automatically:

* **ledger mode** — the dump(s) carry ``extra["slo"]`` written by a live
  :class:`~repro.obs.slo.engine.SLOEngine`; breaches are rendered as a
  timeline (deduplicated across segment slices).
* **evaluate mode** — no ledger anywhere: latency/abort objectives are
  re-evaluated offline from the sampler timeline points, and
  zero-tolerance objectives from the dump's final counters.

Exit codes follow the obs-CLI contract: 0 = objectives met, 1 = unusable
input, 2 = at least one breach.
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.dump import DumpError, aggregate_documents, sections
from repro.obs.slo.engine import evaluate_timeline
from repro.obs.slo.objectives import Objective, default_objectives


def _ledger_entries(documents: List[Dict[str, Any]]
                    ) -> Optional[List[Dict[str, Any]]]:
    """Breach entries across every dump carrying a ledger, deduplicated.

    A breach that spans a rotation boundary appears in several segment
    slices; (objective, start_tick) identifies it uniquely, and the entry
    with an ``end_tick`` (the slice that saw the recovery) wins.
    """
    ledgers = sections(documents, "slo")
    if not ledgers:
        return None
    merged: Dict[Tuple[str, float], Dict[str, Any]] = {}
    for ledger in ledgers:
        for entry in ledger.get("breaches", []):
            key = (entry.get("objective", ""), entry.get("start_tick", 0.0))
            known = merged.get(key)
            if known is None or (known.get("end_tick") is None
                                 and entry.get("end_tick") is not None):
                merged[key] = dict(entry)
    return [merged[key] for key in sorted(merged)]


def _zero_breaches(documents: List[Dict[str, Any]],
                   objectives: List[Objective]) -> List[Dict[str, Any]]:
    """Zero-tolerance objectives checked against final counter totals."""
    metrics = aggregate_documents(documents)["metrics"]
    totals: Dict[str, float] = {}
    for row in metrics.get("counters", []):
        totals[row["name"]] = totals.get(row["name"], 0.0) + row["value"]
    breaches = []
    for objective in objectives:
        if objective.kind != "zero":
            continue
        total = totals.get(objective.metric, 0.0)
        if total > 0:
            breaches.append({
                "objective": objective.name, "kind": "zero",
                "colour": objective.colour, "metric": objective.metric,
                "start_tick": None, "end_tick": None, "target": 0.0,
                "burn_short": total, "burn_long": total,
                "peak_burn": total, "value": total,
            })
    return breaches


def _render(breaches: List[Dict[str, Any]], mode: str,
            status: Optional[List[Dict[str, Any]]] = None) -> str:
    lines = [f"# SLO verdict ({mode})"]
    if status:
        lines.append("")
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
        start = entry.get("start_tick")
        end = entry.get("end_tick")
        window = ("(final totals)" if start is None else
                  f"[{start:g}, {'open' if end is None else f'{end:g}'}]")
        peak = entry.get("peak_burn")
        peak_text = "-" if peak is None else f"{peak:.2f}x"
        lines.append(f"  {entry.get('objective', '?'):<20} {window:<22} "
                     f"peak burn {peak_text}")
    return "\n".join(lines)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the ``slo`` console's arguments on ``parser``."""
    parser.description = ("Render or re-evaluate service-level objectives "
                          "from saved observability dumps.")
    parser.add_argument("paths", nargs="+", metavar="path",
                        help="dump file(s) or a soak segment directory")
    parser.add_argument("--evaluate", action="store_true",
                        help="force offline re-evaluation even when the "
                             "dumps carry a saved ledger")
    parser.add_argument("--objectives", metavar="FILE", default=None,
                        help="JSON file with a list of objective dicts "
                             "(defaults to the stock objective set)")
    parser.add_argument("--latency-target", type=float, default=25.0,
                        help="commit-latency target in ticks for offline "
                             "evaluation (default 25)")
    parser.add_argument("--abort-budget", type=float, default=0.25,
                        help="abort-rate ceiling for offline evaluation "
                             "(default 0.25)")
    parser.add_argument("--json", action="store_true",
                        help="print the verdict as JSON")


def run(args: argparse.Namespace, documents: List[Dict[str, Any]]) -> int:
    """Print the verdict over ``documents``; exit 2 on any breach."""
    if args.objectives is not None:
        try:
            with open(args.objectives, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
            objectives = [Objective.from_dict(entry) for entry in raw]
        except (OSError, json.JSONDecodeError, TypeError,
                ValueError) as error:
            raise DumpError(f"cannot load objectives from "
                            f"{args.objectives}: {error}") from error
    else:
        objectives = default_objectives(
            latency_target=args.latency_target,
            abort_budget=args.abort_budget)

    status = None
    ledger = None if args.evaluate else _ledger_entries(documents)
    if ledger is not None:
        mode, breaches = "saved ledger", ledger
    else:
        points = [point for timeline in sections(documents, "timeline")
                  for point in timeline.get("points", [])]
        if not points and not any("metrics" in d for d in documents):
            raise DumpError("no saved SLO ledger, no sampler timeline and "
                            "no metrics in the input — nothing to evaluate")
        engine = evaluate_timeline(points, objectives)
        breaches = list(engine.breaches) + _zero_breaches(documents,
                                                          objectives)
        status = engine.window_status()
        mode = "offline evaluation"

    if args.json:
        print(json.dumps({"mode": mode, "breaches": breaches,
                          "status": status}, indent=2, sort_keys=True))
    else:
        print(_render(breaches, mode, status=status))
    return 2 if breaches else 0

"""Console ``report``: pretty-print saved observability dumps.

Usage::

    python -m repro.obs report run.trace.json            # metrics + span tree
    python -m repro.obs report run.trace.json --timeline # ASCII timeline
    python -m repro.obs report metrics.json --metrics-only
    python -m repro.obs report dumps/*.trace.json        # aggregated table
    python -m repro.obs report soak-out/                 # soak segment dir

The input is either a full dump written by ``Observability.save``
(``spans`` + ``metrics`` keys) or a bare metrics dump as emitted by
``benchmarks/bench_util.emit_metrics_dump``.

Several files (e.g. every ``REPRO_OBS_DUMP`` artifact of a CI run)
aggregate into one metrics table: counters and gauges are summed across
dumps, histograms are merged exactly on count/sum/min/max/mean
(percentiles need the raw samples, which dumps don't carry, so merged rows
omit them); spans are only rendered for single-file input.

Exit codes follow the obs-CLI contract: 0 = rendered, clean; 1 = unusable
input; 2 = rendered, but the dump(s) record invariant-auditor findings
(``audit_findings_total`` > 0) — replay them with the ``audit`` console.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional

from repro.obs.dump import aggregate_documents
from repro.obs.export import span_timeline, span_tree, text_report


def render(document: Dict[str, Any], timeline: bool = False,
           metrics_only: bool = False, trace_id: Optional[str] = None,
           width: int = 72) -> str:
    sections: List[str] = []
    metrics = document.get("metrics")
    if metrics is not None:
        sections.append("# Metrics\n" + text_report(metrics))
    spans = document.get("spans")
    if spans is not None and not metrics_only:
        sections.append("# Spans\n" + span_tree(spans, trace_id=trace_id))
        if timeline:
            sections.append("# Timeline\n"
                            + span_timeline(spans, width=width,
                                            trace_id=trace_id))
    if not sections:
        return "(nothing to report: no metrics or spans in the input)"
    return "\n\n".join(sections)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the ``report`` console's arguments on ``parser``."""
    parser.description = "Pretty-print a saved repro observability dump."
    parser.add_argument("paths", nargs="+", metavar="path",
                        help="trace/metrics JSON file(s) (Observability.save "
                             "or metrics dumps) or a soak segment directory; "
                             "several inputs aggregate into one table")
    parser.add_argument("--timeline", action="store_true",
                        help="also render the ASCII span timeline")
    parser.add_argument("--metrics-only", action="store_true",
                        help="print only the metrics section")
    parser.add_argument("--trace", metavar="TRACE_ID", default=None,
                        help="restrict span output to one trace id")
    parser.add_argument("--width", type=int, default=72,
                        help="timeline width in columns (default 72)")


def run(args: argparse.Namespace, documents: List[Dict[str, Any]]) -> int:
    """Render the loaded dump(s); exit 2 when they record auditor findings.

    A run whose hub auditor found violations carries them in its metrics,
    so a green-looking metrics table can't hide a red run.
    """
    if len(documents) == 1:
        document = documents[0]
    else:
        print(f"(aggregating {len(documents)} dumps; spans omitted)\n")
        document = aggregate_documents(documents)
    print(render(document, timeline=args.timeline,
                 metrics_only=args.metrics_only, trace_id=args.trace,
                 width=args.width))
    findings = sum(row.get("value", 0.0)
                   for row in document.get("metrics", {}).get("counters", [])
                   if row.get("name") == "audit_findings_total")
    if findings:
        print(f"\nWARNING: {findings:g} invariant-auditor finding(s) "
              f"recorded in this run — replay with "
              f"`python -m repro.obs audit <dump>`", file=sys.stderr)
        return 2
    return 0

"""Console ``why``: why did a transaction abort / what bounded a commit.

Usage::

    python -m repro.obs why dump.json                 # summary
    python -m repro.obs why dump.json txn:n0:3:1:2    # one postmortem
    python -m repro.obs why dump.json --aborts        # full attribution
    python -m repro.obs why dump.json --slowest 5     # commit forensics
    python -m repro.obs why dump.json --aborts --json

The input is a dump written by ``Observability.save`` (or a soak segment
directory, replayed in segment order); aborts are re-attributed by
replaying its retained ``events`` through the
:class:`~repro.obs.postmortem.engine.PostmortemEngine`, and commit
critical paths come from its ``spans``.  Exit codes: 0 = clean, 1 =
unusable input or no such transaction, 2 = attribution gaps (an abort
classified ``unknown``, or totals that disagree with the dump's own
per-colour abort counters).
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Dict, List

from repro.obs import dump
from repro.obs.postmortem import critical, render
from repro.obs.postmortem.engine import PostmortemEngine


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the ``why`` console's arguments on ``parser``."""
    parser.description = ("Causal postmortems over a saved obs dump: why "
                          "did a transaction abort, what bounded a commit.")
    parser.add_argument("path", help="trace JSON written by Observability.save"
                                     " or a soak segment directory")
    parser.add_argument("query", nargs="?", default=None,
                        help="a txn id, action uid or action name to explain")
    parser.add_argument("--aborts", action="store_true",
                        help="attribute every abort (exit 2 on gaps)")
    parser.add_argument("--slowest", type=int, metavar="N", default=None,
                        help="critical paths of the N slowest commits")
    parser.add_argument("--json", action="store_true",
                        help="print the result as JSON")


def run(args: argparse.Namespace, documents: List[Dict[str, Any]]) -> int:
    """Replay the documents' events and answer the question ``args`` asks."""
    engine = PostmortemEngine.replay(
        event for document in documents for event in dump.events(document))
    spans = [span for document in documents
             for span in document.get("spans", [])]
    metrics = (documents[0].get("metrics", {}) if len(documents) == 1
               else dump.aggregate_documents(documents)["metrics"])

    if args.query is not None:
        record = engine.record_for(args.query)
        if record is None:
            raise dump.DumpError(f"no finished action or transaction "
                                 f"matches {args.query!r} in {args.path}")
        paths = [entry for entry in critical.slowest_commits(spans, count=1000)
                 if entry["action"] == record.action]
        if args.json:
            doc = record.to_dict()
            if paths:
                doc["critical_path"] = paths[0]
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            for line in render.render_record(record):
                print(line)
            for entry in paths:
                for line in critical.describe_path(entry):
                    print(line)
        return 0

    if args.slowest is not None:
        entries = critical.slowest_commits(spans, count=args.slowest)
        if args.json:
            print(json.dumps(entries, indent=2, sort_keys=True))
        elif not entries:
            print("no finished commit spans in the dump")
        else:
            for entry in entries:
                for line in critical.describe_path(entry):
                    print(line)
        return 0

    records = list(engine.records)
    if args.aborts:
        lines, failures = render.abort_report(records, metrics_doc=metrics)
        if args.json:
            print(json.dumps({
                "records": [r.to_dict() for r in records
                            if r.outcome == "aborted"],
                "reasons": render.reason_histogram(records),
                "gaps": failures,
            }, indent=2, sort_keys=True))
        else:
            for line in lines:
                print(line)
        return 2 if failures else 0

    # no flags: a one-screen summary
    histogram = render.reason_histogram(records)
    aborted = sum(histogram.values())
    print(f"{len(records)} finished action(s), {aborted} aborted")
    for reason, count in sorted(histogram.items(),
                                key=lambda kv: (-kv[1], kv[0])):
        print(f"  {reason}: {count}")
    for entry in critical.slowest_commits(spans, count=3):
        for line in critical.describe_path(entry):
            print(line)
    return 0

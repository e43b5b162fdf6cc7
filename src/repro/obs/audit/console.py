"""Console ``audit``: replay a saved dump through the invariant auditor.

Usage::

    python -m repro.obs audit run.trace.json
    python -m repro.obs audit run.trace.json --json
    python -m repro.obs audit soak-out/          # soak segment directory

The input is a dump written by ``Observability.save`` (its ``events`` key
is the retained bus-event log) or a soak segment directory, whose
per-segment event slices are replayed concatenated in segment order —
rotation partitions the stream without overlap, so the replay sees exactly
what an unrotated run would have retained.  Exit codes: 0 = no findings,
1 = unusable input, 2 = invariant violations found.
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Dict, List

from repro.obs import dump
from repro.obs.audit.auditor import InvariantAuditor


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the ``audit`` console's arguments on ``parser``."""
    parser.description = ("Replay a saved obs dump through the invariant "
                          "auditor.")
    parser.add_argument("path", help="trace JSON written by Observability.save"
                                     " or a soak segment directory")
    parser.add_argument("--json", action="store_true",
                        help="print findings as a JSON array")


def run(args: argparse.Namespace, documents: List[Dict[str, Any]]) -> int:
    """Replay every document's events, in order, and print the findings."""
    auditor = InvariantAuditor()
    for document in documents:
        for event in dump.events(document):
            auditor.consume(event)
    total = sum(len(document["events"]) for document in documents)
    found = auditor.report()
    if args.json:
        print(json.dumps([f.to_dict() for f in found], indent=2,
                         sort_keys=True))
    elif found:
        print(f"{len(found)} finding(s) over {total} events:")
        for finding in found:
            print(f"  {finding}")
    else:
        print(f"clean: {total} events, no findings")
    return 2 if found else 0

"""``python -m repro.obs <command>`` — the one observability console.

Every command reads the same artefact, the ``repro-obs/1`` dump
(:mod:`repro.obs.dump`), and speaks the same exit-code contract:

* **0** — input understood, nothing demands attention;
* **1** — unusable input (missing file, malformed JSON, wrong shape);
* **2** — input understood and something *does* demand attention
  (auditor findings, a gated perf regression, attribution gaps,
  introspection drift, an SLO breach).

This module owns argv parsing, dump loading and the exit-1 path; a console
is its ``add_arguments(parser)`` plus a ``run(args, documents) -> int``
that renders.  A console names its dump argument ``path`` or ``paths``;
files and soak segment directories are accepted alike.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.obs import dump, report
from repro.obs.audit import console as audit
from repro.obs.introspect import console as top
from repro.obs.perf import console as perf
from repro.obs.postmortem import console as why
from repro.obs.slo import console as slo
from repro.obs.soak import console as soak

#: command -> (add_arguments, run)
COMMANDS = {
    "report": (report.add_arguments, report.run),
    "audit": (audit.add_arguments, audit.run),
    "why": (why.add_arguments, why.run),
    "top": (top.add_arguments, top.run),
    "perf": (perf.add_arguments, perf.run),
    "slo": (slo.add_arguments, slo.run),
    "soak": (soak.add_arguments, soak.run),
}


def main(argv: Optional[List[str]] = None) -> int:
    """Parse ``argv``, load the named dumps, run the console."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability consoles over repro-obs/1 dumps.")
    consoles = parser.add_subparsers(dest="console", required=True)
    for name, (add_arguments, _run) in COMMANDS.items():
        add_arguments(consoles.add_parser(name))
    args = parser.parse_args(argv)
    paths = getattr(args, "paths", None)
    if paths is None:
        path = getattr(args, "path", None)
        paths = [] if path is None else [path]
    try:
        return COMMANDS[args.console][1](args, dump.load(paths))
    except dump.DumpError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Console ``soak``: run a seeded soak arm and report its SLO verdict.

Usage::

    python -m repro.obs soak --arm clean --horizon 7200 --out soak-out/
    python -m repro.obs soak --arm faulty --out soak-out/ --json
    python -m repro.obs soak --arm clean --no-rotate       # in-memory only

Segments land in ``--out`` as ``segment-NNNN.trace.json`` plus a
``soak.json`` summary; aggregate them with ``python -m repro.obs report
<out>``, replay them with ``audit <out>``, render the breach timeline with
``slo <out>``.

Exit codes follow the obs-CLI contract: 0 = soak completed with every
objective met, 1 = unusable input (bad arm/horizon/out path), 2 = soak
completed but demands attention (SLO breaches or auditor findings).
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Any, Dict, List

from repro.obs.dump import DumpError
from repro.obs.soak.runner import ARMS, SoakRunner


def _render(summary: Dict[str, Any]) -> str:
    lines = [
        f"# Soak report — arm {summary['arm']} (seed {summary['seed']})",
        "",
        f"  horizon   {summary['horizon']:g} ticks "
        f"(ran to {summary['elapsed']:g})",
        f"  actions   {summary['committed']} committed, "
        f"{summary['aborted']} aborted",
        f"  segments  {len(summary['segments'])} rotated",
        f"  findings  {summary['audit_findings']} auditor finding(s)",
        f"  breaches  {summary['breach_total']} SLO breach(es)",
    ]
    peaks = summary.get("peaks", {})
    if peaks:
        lines.append("  peak retention: " + ", ".join(
            f"{key}={value}" for key, value in sorted(peaks.items())))
    for verdict in summary.get("segment_verdicts", []):
        breaching = ",".join(verdict["breaching"]) or "-"
        lines.append(
            f"    segment {verdict['index']:>3}  "
            f"[{verdict['start_tick']:g}, {verdict['end_tick']:g}]  "
            f"breaches={verdict['breaches']}  breaching={breaching}")
    for entry in summary.get("breaches", []):
        end = entry["end_tick"]
        window = f"[{entry['start_tick']:g}, " + (
            "open]" if end is None else f"{end:g}]")
        lines.append(f"  BREACH {entry['objective']:<20} {window:<22} "
                     f"peak burn {entry['peak_burn']:.2f}x")
    return "\n".join(lines)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the ``soak`` console's arguments on ``parser``."""
    parser.description = ("Run a seeded long-horizon chaos soak with "
                          "streaming segment dumps and an SLO verdict.")
    parser.add_argument("--arm", default="clean", metavar="ARM",
                        help=f"scenario arm, one of {', '.join(ARMS)} "
                             f"(default clean)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="directory for segment dumps + soak.json "
                             "(omit to keep everything in memory)")
    parser.add_argument("--seed", type=int, default=21)
    parser.add_argument("--horizon", type=float, default=7200.0,
                        help="simulated run length in ticks (default 7200)")
    parser.add_argument("--segment-every", type=float, default=1800.0,
                        help="rotation period in ticks (default 1800)")
    parser.add_argument("--interval", type=float, default=20.0,
                        help="sampler interval in ticks (default 20)")
    parser.add_argument("--workers", type=int, default=3)
    parser.add_argument("--latency-target", type=float, default=12.0,
                        help="commit-latency SLO target in ticks")
    parser.add_argument("--abort-budget", type=float, default=0.25,
                        help="abort-rate SLO ceiling (fraction)")
    parser.add_argument("--surge", type=float, default=8.0,
                        help="faulty arm: delay multiplier in the burst")
    parser.add_argument("--burst-start", type=float, default=None,
                        help="faulty arm: burst start tick "
                             "(default 35%% of horizon)")
    parser.add_argument("--burst-duration", type=float, default=None,
                        help="faulty arm: burst length in ticks "
                             "(default 15%% of horizon)")
    parser.add_argument("--no-rotate", action="store_true",
                        help="disable segment rotation (unbounded memory; "
                             "reference runs only)")
    parser.add_argument("--json", action="store_true",
                        help="print the summary as JSON")


def run(args: argparse.Namespace, documents: List[Dict[str, Any]]) -> int:
    """Run the arm and print its summary; the exit code is the verdict."""
    # the contract reserves exit 1 for unusable input, so bad values are
    # rejected here (by the runner's own checks), not by argparse's exit 2
    if args.out is not None and os.path.isfile(args.out):
        raise DumpError(f"--out {args.out} exists and is a file, not a "
                        f"directory")
    try:
        runner = SoakRunner(
            out_dir=args.out, arm=args.arm, seed=args.seed,
            horizon=args.horizon, segment_every=args.segment_every,
            sample_interval=args.interval, workers=args.workers,
            latency_target=args.latency_target,
            abort_budget=args.abort_budget, surge=args.surge,
            burst_start=args.burst_start,
            burst_duration=args.burst_duration, rotate=not args.no_rotate)
    except ValueError as error:
        raise DumpError(str(error)) from error
    summary = runner.run()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(_render(summary))
    return summary["exit_code"]

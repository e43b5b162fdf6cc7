"""``python -m benchmarks.e2e``: the repo benchmark's one command.

* ``--workload W --seed N --seconds S --trace 0|1`` — one run (what the
  benchmark driver calls); the last line of stdout is the result object.
* no ``--workload`` — the suite: every workload, 3 untraced runs + one
  traced run each, every metric printed by name with its unit, the
  document written to ``--out``.  ``--quick``: 1/20 size, 1 untraced run.
* ``--compare A.json B.json`` — verdict per (workload, end-to-end metric).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, once")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None,
                        help="size of a run: operations = the workload's "
                             "operations_at_10s x this / 10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--raw", action="store_true",
                        help="one run: print the full result, not just the "
                             "driver's keys")
    parser.add_argument("--trace-dump", metavar="PATH",
                        help="traced run: write the spans here as JSON lines")
    parser.add_argument("--reference", metavar="PATH",
                        help="traced run: the --raw result of an untraced "
                             "run of the same workload, seed and size (else "
                             "the traced run makes one itself)")
    parser.add_argument("--quick", action="store_true",
                        help="suite at 1/20 size, 1 untraced run, the traced "
                             "runs' spans dumped next to --out")
    parser.add_argument("--out", metavar="PATH",
                        help="suite: where to write the document")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if args.compare:
        from . import compare
        return compare.main(*args.compare)
    src = REPO_ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"benchmarks.e2e: no program to measure: {src}/repro is "
              f"missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from . import runner, workloads

    seed = runner.DEFAULT_SEED if args.seed is None else args.seed
    seconds = runner.DEFAULT_SECONDS if args.seconds is None else args.seconds
    if args.workload:
        if args.workload not in workloads.BY_NAME:
            print(f"unknown workload {args.workload!r}; one of "
                  f"{', '.join(workloads.BY_NAME)}", file=sys.stderr)
            return 2
        reference = None
        if args.reference:
            reference = json.loads(Path(args.reference).read_text())
        try:
            result = runner.run_once(
                workloads.BY_NAME[args.workload], seed, seconds,
                trace=bool(args.trace), trace_dump=args.trace_dump,
                reference=reference)
        except workloads.CorrectnessError as error:
            print(f"INCORRECT {args.workload} seed {seed}: {error}",
                  file=sys.stderr)
            return 1
        print(json.dumps(result) if args.raw
              else runner.contract_line(result))
        return 0
    out = Path(args.out) if args.out else (
        REPO_ROOT / "benchmarks" / "e2e" / "out"
        / f"{'quick' if args.quick else 'results'}-seed{seed}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    try:
        document = runner.run_suite(seed, seconds, args.quick, out.parent)
    except RuntimeError as error:
        print(f"FAILED: {error}", file=sys.stderr)
        return 1
    out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

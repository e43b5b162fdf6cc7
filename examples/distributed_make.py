#!/usr/bin/env python3
"""The §4(iv) distributed make on the cluster simulator (fig. 8).

The paper's own makefile (Test <- Test0.o, Test1.o) with files spread
across three object-server nodes.  Shows:

- concurrency: the two object files compile in parallel (makespan ~2
  compilations, not 3);
- concurrency control: the files a make is using cannot be touched by
  other programs meanwhile;
- fault tolerance: a failure before the final link leaves the object files
  consistent in stable storage; a re-run only links.

Run:  python examples/distributed_make.py
"""

from repro.apps.make.distributed import DistributedMakeEngine
from repro.apps.make.makefile import PAPER_EXAMPLE, parse_makefile
from repro.cluster.cluster import Cluster
from repro.obs import action_timeline

PLACEMENT = {
    "Test": "node-1",
    "Test0.o": "node-2", "Test0.c": "node-2", "Test0.h": "node-2",
    "Test1.o": "node-3", "Test1.c": "node-3", "Test1.h": "node-2",
}
SOURCES = {name: f"/* source of {name} */"
           for name in ("Test0.c", "Test0.h", "Test1.c", "Test1.h")}
COMPILE_DURATION = 200.0


def build_engine(seed=0, fail_before=None):
    cluster = Cluster(seed=seed)
    cluster.observe(history=True)  # the timeline is drawn from kept spans
    for node in ("workstation", "node-1", "node-2", "node-3"):
        cluster.add_node(node)
    client = cluster.client("workstation")
    engine = DistributedMakeEngine(
        cluster, client, parse_makefile(PAPER_EXAMPLE), PLACEMENT,
        compile_duration=COMPILE_DURATION, fail_before=fail_before,
    )
    cluster.run_process("workstation", engine.setup(SOURCES))
    cluster.obs.tracer.clear()  # drop setup noise; trace the build itself
    return cluster, engine


def main() -> None:
    print("== distributed make of the paper's makefile")
    cluster, engine = build_engine()
    start = cluster.kernel.now
    report = cluster.run_process("workstation", engine.make())
    makespan = cluster.kernel.now - start
    print(f"  rebuilt: {report.rebuilt}")
    print(f"  makespan: {makespan:.1f} sim-time units "
          f"(one compilation = {COMPILE_DURATION})")
    print(f"  serial lower bound would be {3 * COMPILE_DURATION:.0f}; the two "
          f".o files built concurrently")
    print(f"  consistent targets in stable storage: "
          f"{engine.consistent_targets()}")
    print("\n  the fig. 8 picture, from this very run:")
    print(action_timeline(cluster.obs.tracer, width=64))

    print("\n== nothing to do on a second run")
    report2 = cluster.run_process("workstation", engine.make())
    print(f"  rebuilt: {report2.rebuilt}, up to date: {report2.up_to_date}")

    print("\n== make fails before the final link")
    cluster3, engine3 = build_engine(fail_before="Test")
    report3 = cluster3.run_process("workstation", engine3.make())
    print(f"  failed at: {report3.failed_at}; rebuilt before the failure: "
          f"{sorted(report3.rebuilt)}")
    print(f"  object files survive in stable storage: "
          f"Test0.o ts={engine3.stable_timestamp('Test0.o'):.1f}, "
          f"Test1.o ts={engine3.stable_timestamp('Test1.o'):.1f}")
    engine3.fail_before = None
    report4 = cluster3.run_process("workstation", engine3.make())
    print(f"  re-run only finishes the link: rebuilt={report4.rebuilt}, "
          f"up to date: {sorted(report4.up_to_date)}")


if __name__ == "__main__":
    main()

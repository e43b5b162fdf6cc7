#!/usr/bin/env python3
"""The §4(v) meeting scheduler, distributed: diaries on the participants'
own workstations, glued rounds across object servers, and a coordinator
crash that loses no committed narrowing.

Run:  python examples/distributed_meeting.py
"""

from repro.apps.meeting.distributed import (
    DistributedMeetingScheduler,
    SchedulerCrashRemote,
)
from repro.cluster.cluster import Cluster
from repro.obs import action_timeline

DATES = [f"2026-07-{day:02d}" for day in range(13, 20)]
PEOPLE = {"ann": "ws-ann", "bob": "ws-bob", "cat": "ws-cat"}
PREFERENCES = [DATES[1:6], DATES[2:7], [DATES[3], DATES[5]]]


def main() -> None:
    cluster = Cluster(seed=42)
    cluster.observe(history=True)  # the timeline is drawn from kept spans
    cluster.add_node("coordinator")
    for node in PEOPLE.values():
        cluster.add_node(node)
    client = cluster.client("coordinator")

    scheduler = DistributedMeetingScheduler(cluster, client)
    cluster.run_process("coordinator",
                        scheduler.create_diaries(PEOPLE, DATES))
    cluster.obs.tracer.clear()  # drop setup noise; trace the scheduling itself

    print("== scheduling across three workstations")

    def run():
        return (yield from scheduler.schedule("offsite", PREFERENCES))

    chosen = cluster.run_process("coordinator", run())
    for info in scheduler.rounds:
        print(f"  round {info.index}: kept {len(info.kept)}, "
              f"released {len(info.released)}")
    print(f"  agreed: {chosen}")
    print("\n  the fig. 9 rounds, as executed (sim-time axis):")
    print(action_timeline(cluster.obs.tracer, width=56))

    print("\n== the coordinator crashes after round 1")
    cluster2 = Cluster(seed=43)
    cluster2.add_node("coordinator")
    for node in PEOPLE.values():
        cluster2.add_node(node)
    client2 = cluster2.client("coordinator")
    crashy = DistributedMeetingScheduler(cluster2, client2)
    cluster2.run_process("coordinator", crashy.create_diaries(PEOPLE, DATES))

    def run_crashy():
        try:
            yield from crashy.schedule("offsite", PREFERENCES,
                                       fail_after_round=1)
        except SchedulerCrashRemote as error:
            return str(error)

    print(f"  {cluster2.run_process('coordinator', run_crashy())}")
    print(f"  committed narrowing survives on the diary servers: "
          f"{crashy.rounds[-1].kept}")

    def resume():
        yield from crashy.release_pins()
        return (yield from crashy.schedule("offsite",
                                           PREFERENCES[1:]))

    chosen2 = cluster2.run_process("coordinator", resume())
    print(f"  resumed and agreed: {chosen2}")


if __name__ == "__main__":
    main()

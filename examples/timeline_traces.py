#!/usr/bin/env python3
"""Regenerate the paper's figures as timelines from *real executions*.

Every diagram below is rendered from a trace of the actual runtime — not
drawn by hand.  Compare with figs. 2, 3, 5 and 7 of the paper.

Run:  python examples/timeline_traces.py
"""

from repro import Counter, GluedGroup, LocalRuntime, SerializingAction, independent_top_level
from repro.obs import History, action_timeline


def traced():
    runtime = LocalRuntime()
    # the timelines are drawn from retained action spans
    runtime.obs.bind(History())
    return runtime, runtime.obs.tracer


def fig2_nesting() -> None:
    runtime, tracer = traced()
    counter = Counter(runtime, value=0)
    try:
        with runtime.top_level(name="A"):
            with runtime.atomic(name="B"):
                counter.increment(1)
            with runtime.atomic(name="C"):
                counter.increment(1)
            raise RuntimeError("failure prevents completion of A")
    except RuntimeError:
        pass
    print(action_timeline(tracer, title="Fig. 2 — nested atomic actions "
                                        "(A aborts; B and C are undone)"))
    print(f"    surviving updates: {counter.value}\n")


def fig3_serializing() -> None:
    runtime, tracer = traced()
    counter = Counter(runtime, value=0)
    ser = SerializingAction(runtime, name="A")
    with ser.constituent(name="B") as b:
        counter.increment(1, action=b)
    with ser.constituent(name="C") as c:
        counter.increment(1, action=c)
    ser.cancel()
    print(action_timeline(tracer, title="Fig. 3 — serializing action "
                                        "(A aborts; B and C survive)"))
    print(f"    surviving updates: {counter.value}\n")


def fig5_glued() -> None:
    runtime, tracer = traced()
    p = Counter(runtime, value=0)
    rest = Counter(runtime, value=0)
    with GluedGroup(runtime, name="glue") as glue:
        with glue.member(name="A") as member:
            p.increment(1, action=member.action)
            rest.increment(1, action=member.action)
            member.hand_over(p)
        with glue.member(name="B") as member:
            p.increment(1, action=member.action)
    print(action_timeline(tracer, title="Fig. 5 — glued actions "
                                        "(P handed from A to B)",
                          show_locks=True))
    print(f"    p={p.value}, rest={rest.value}\n")


def fig7_independent() -> None:
    runtime, tracer = traced()
    board = Counter(runtime, value=0)
    try:
        with runtime.top_level(name="A"):
            with independent_top_level(runtime, name="B") as post:
                board.increment(1, action=post)
            raise RuntimeError("A aborts after B committed")
    except RuntimeError:
        pass
    print(action_timeline(tracer, title="Fig. 7(a) — top-level independent "
                                        "action (B survives A's abort)"))
    print(f"    board={board.value}\n")


def main() -> None:
    fig2_nesting()
    fig3_serializing()
    fig5_glued()
    fig7_independent()


if __name__ == "__main__":
    main()

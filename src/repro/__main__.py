"""``python -m repro`` — a guided tour of the reproduction.

Runs the headline scenarios (figs. 2, 3, 5, 7 as executed timelines, the
fig. 10 coloured action, and a distributed 2PC episode) and prints what
the paper claims next to what just happened.
"""

from __future__ import annotations

import sys

from repro import (
    Counter,
    GluedGroup,
    LocalRuntime,
    SerializingAction,
    independent_top_level,
)
from repro.obs import History, action_timeline


def banner(text: str) -> None:
    print("\n" + "=" * 72)
    print(text)
    print("=" * 72)


def traced():
    runtime = LocalRuntime()
    runtime.obs.bind(History())
    return runtime, runtime.obs.tracer


def demo_nesting_problem() -> None:
    banner("Fig. 2 — the problem: nesting undoes completed work")
    runtime, tracer = traced()
    counter = Counter(runtime, value=0)
    try:
        with runtime.top_level(name="A"):
            with runtime.atomic(name="B"):
                counter.increment(10)
            raise RuntimeError("A fails after B completed")
    except RuntimeError:
        pass
    print(action_timeline(tracer))
    print(f"B completed 10 updates; surviving: {counter.value}  "
          f"(all lost with A)")


def demo_serializing() -> None:
    banner("Fig. 3 — the fix: a serializing action")
    runtime, tracer = traced()
    counter = Counter(runtime, value=0)
    ser = SerializingAction(runtime, name="A")
    with ser.constituent(name="B") as b:
        counter.increment(10, action=b)
    ser.cancel()
    print(action_timeline(tracer))
    print(f"B completed 10 updates; surviving after A's abort: "
          f"{counter.value}")


def demo_glued() -> None:
    banner("Fig. 5 — glued actions: pass P, release the rest")
    runtime, tracer = traced()
    p, rest = Counter(runtime, value=0), Counter(runtime, value=0)
    with GluedGroup(runtime, name="glue") as glue:
        with glue.member(name="A") as member:
            p.increment(1, action=member.action)
            rest.increment(1, action=member.action)
            member.hand_over(p)
        with glue.member(name="B") as member:
            p.increment(10, action=member.action)
    print(action_timeline(tracer))
    print(f"p passed A->B under lock (value {p.value}); "
          f"'rest' was free the whole time")


def demo_independent() -> None:
    banner("Fig. 7 — a top-level independent action")
    runtime, tracer = traced()
    board = Counter(runtime, value=0)
    try:
        with runtime.top_level(name="A"):
            with independent_top_level(runtime, name="B") as post:
                board.increment(1, action=post)
            raise RuntimeError("A aborts")
    except RuntimeError:
        pass
    print(action_timeline(tracer))
    print(f"the post survived its invoker's abort: board={board.value}")


def demo_coloured() -> None:
    banner("Fig. 10 — the mechanism: a two-coloured action")
    runtime = LocalRuntime()
    red, blue = runtime.colours.fresh("red"), runtime.colours.fresh("blue")
    o_red, o_blue = Counter(runtime, value=0), Counter(runtime, value=0)
    try:
        with runtime.coloured([blue], name="A"):
            with runtime.coloured([red, blue], name="B") as b:
                o_red.increment(1, colour=red, action=b)
                o_blue.increment(1, colour=blue, action=b)
            raise RuntimeError("A aborts after B committed")
    except RuntimeError:
        pass
    print("B {red, blue} nested in A {blue}:")
    print(f"  red-locked object:  {o_red.value}  (permanent at B's commit)")
    print(f"  blue-locked object: {o_blue.value}  (undone by A's abort)")


def demo_distributed() -> None:
    banner("The substrate — a distributed action with 2PC and a crash")
    from repro.cluster import Cluster
    cluster = Cluster(seed=1)
    for name in ("client-node", "store-a", "store-b"):
        cluster.add_node(name)
    client = cluster.client("client-node")

    def app():
        a = yield from client.create("store-a", "counter", value=0)
        b = yield from client.create("store-b", "counter", value=0)
        action = client.top_level("move")
        yield from client.invoke(action, a, "increment", 5)
        yield from client.invoke(action, b, "increment", 5)
        yield from client.commit(action)
        return a, b

    ref_a, ref_b = cluster.run_process("client-node", app())
    print(f"committed atomically across two nodes "
          f"({cluster.network.stats()['sent']} messages)")
    cluster.crash("store-a")
    cluster.restart("store-a")

    def read():
        action = client.top_level("read")
        value = yield from client.invoke(action, ref_a, "get")
        yield from client.commit(action)
        return value

    print(f"store-a crashed and restarted; committed state intact: "
          f"{cluster.run_process('client-node', read())}")


def main(argv=None) -> int:
    demo_nesting_problem()
    demo_serializing()
    demo_glued()
    demo_independent()
    demo_coloured()
    demo_distributed()
    print("\nSee examples/ for more, EXPERIMENTS.md for the full "
          "figure-by-figure record.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""F15 — Fig. 15: the colour assignment implementing fig. 14, generated
automatically by the structures layer.

The paper's scheme: A {red, blue}, B {red}, C {green}, D {red}, E {blue},
F {green}.  Our API: C and F come from ``independent_top_level`` (fresh
colour each — the role green plays), E from ``independent_relative_to``
anchored at A (the marker plays blue), B and D are ordinary nested/red.
The benchmark checks the generated assignment has exactly the paper's
structure, then replays the fig. 14 semantics through it.

The scheme is runtime-free (:mod:`repro.structures.schemes`), so the same
assignment is generated for a cluster client: ``distributed_episode`` puts
the five counters on three object servers and drives the same tree through
``client.independent_top_level`` and the cluster's
``independent_relative_to`` (``test_fig14_nlevel`` replays its matrix too).
"""

from bench_util import print_figure

from repro.cluster import structures as cluster_structures
from repro.cluster.cluster import Cluster
from repro.objects.state import ObjectState
from repro.runtime.runtime import LocalRuntime
from repro.stdobjects import Counter
from repro.structures import (
    independence_markers,
    independent_relative_to,
    independent_top_level,
)


def episode():
    runtime = LocalRuntime()
    (marker,) = independence_markers(runtime, 1, name="blue")
    red = runtime.colours.fresh("red")
    effects = {name: Counter(runtime, value=0) for name in "CDEF"}
    assignment = {}
    try:
        with runtime.coloured([red, marker], name="A") as a:
            assignment["A"] = a.colours
            with independent_top_level(runtime, parent=a, name="C") as c:
                assignment["C"] = c.colours
                effects["C"].increment(1, action=c)
            try:
                with runtime.coloured([red], parent=a, name="B") as b:
                    assignment["B"] = b.colours
                    with runtime.coloured([red], parent=b, name="D") as d:
                        assignment["D"] = d.colours
                        effects["D"].increment(1, action=d)
                    with independent_relative_to(runtime, a, parent=b,
                                                 name="E") as e:
                        assignment["E"] = e.colours
                        effects["E"].increment(1, action=e)
                    with independent_top_level(runtime, parent=b,
                                               name="F") as f:
                        assignment["F"] = f.colours
                        effects["F"].increment(1, action=f)
                    raise RuntimeError("B aborts")
            except RuntimeError:
                pass
            e_after_b = effects["E"].value
            raise RuntimeError("A aborts")
    except RuntimeError:
        pass
    return {
        "assignment": assignment,
        "e_after_b_abort": e_after_b,
        "survivors": {name: counter.value for name, counter in effects.items()},
        "marker": marker,
        "red": red,
    }


def distributed_episode(b_aborts: bool, a_aborts: bool):
    """Fig. 14's tree over three object servers, fig. 15's colours from the
    cluster's structure API; what survived is read from the stable stores."""
    cluster = Cluster(seed=0)
    for node in ("ws", "s1", "s2", "s3"):
        cluster.add_node(node)
    client = cluster.client("ws")
    (marker,) = independence_markers(client, 1, name="blue")
    red = client.fresh_colour("red")
    assignment, refs = {}, {}

    def run(action, name):
        """One increment on the action's own counter, then commit."""
        assignment[name] = action.colours
        yield from client.invoke(action, refs[name], "increment", 1)
        yield from client.commit(action)

    def app():
        for name, node in zip("BCDEF", ("s1", "s2", "s3", "s1", "s2")):
            refs[name] = yield from client.create(node, "counter", value=0)
        a = client.coloured([red, marker], name="A")
        assignment["A"] = a.colours
        yield from run(client.independent_top_level(a, name="C"), "C")
        b = client.coloured([red], parent=a, name="B")
        assignment["B"] = b.colours
        yield from client.invoke(b, refs["B"], "increment", 1)
        yield from run(client.coloured([red], parent=b, name="D"), "D")
        yield from run(cluster_structures.independent_relative_to(
            client, a, b, name="E"), "E")
        yield from run(client.independent_top_level(b, name="F"), "F")
        yield from (client.abort if b_aborts else client.commit)(b)
        yield from (client.abort if a_aborts else client.commit)(a)

    cluster.run_process("ws", app())

    def committed(ref):
        stored = cluster.nodes[ref.node].stable_store.read_committed(ref.uid)
        return ObjectState.from_bytes(stored.payload).unpack_int()

    servers = cluster.servers.values()
    return {
        "assignment": assignment,
        "survivors": {name: committed(ref) for name, ref in refs.items()},
        "marker": marker,
        "red": red,
        "left_behind": {
            "auditor findings": cluster.obs.auditor.report(),
            "bus errors": dict(cluster.obs.bus.errors),
            "mirrors": sum(len(server.mirrors) for server in servers),
            "locks": sum(server.registry.snapshot()["held"]
                         for server in servers),
            "live actions": len(client.live_actions),
        },
    }


NOTHING_LEFT = {"auditor findings": [], "bus errors": {}, "mirrors": 0,
                "locks": 0, "live actions": 0}


def both_episodes():
    return episode(), distributed_episode(b_aborts=True, a_aborts=True)


def check_assignment(colours, red, marker):
    """The paper's structure, generated automatically."""
    assert colours["A"] == frozenset((red, marker))      # A {red, blue}
    assert colours["B"] == frozenset((red,))             # B {red}
    assert colours["D"] == frozenset((red,))             # D {red}
    assert colours["E"] == frozenset((marker,))          # E {blue}
    assert len(colours["C"]) == 1 and not (colours["C"] & colours["A"])  # C {green}
    assert len(colours["F"]) == 1 and not (
        colours["F"] & (colours["A"] | colours["B"]))                    # F {green'}


def assignment_rows(assignment):
    return [(name, "{" + ", ".join(sorted(str(c) for c in cs)) + "}")
            for name, cs in sorted(assignment.items())]


def test_fig15_generated_assignment(benchmark):
    result, distributed = benchmark(both_episodes)
    check_assignment(result["assignment"], result["red"], result["marker"])
    # and it reproduces fig. 14's semantics:
    assert result["e_after_b_abort"] == 1                # E survives B
    assert result["survivors"] == {"C": 1, "D": 0, "E": 0, "F": 1}
    # the same scheme, generated for ClusterActions on three servers
    check_assignment(distributed["assignment"], distributed["red"],
                     distributed["marker"])
    assert distributed["survivors"] == {"B": 0, **result["survivors"]}
    assert distributed["left_behind"] == NOTHING_LEFT
    print_figure(
        "Fig. 15 — automatically generated colour assignment",
        assignment_rows(result["assignment"]),
        headers=("action", "colours"),
    )
    print_figure(
        "Fig. 15 — the same assignment generated on a three-server cluster",
        assignment_rows(distributed["assignment"]),
        headers=("action", "colours"),
    )

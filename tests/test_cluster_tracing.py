"""Tracing cluster actions on simulated time."""

from repro.apps.make.distributed import DistributedMakeEngine
from repro.apps.make.makefile import PAPER_EXAMPLE, parse_makefile
from repro.cluster.cluster import Cluster
from repro.obs import action_timeline, survival_report


def test_cluster_actions_traced_on_sim_time():
    cluster = Cluster(seed=0)
    cluster.observe(history=True)
    for name in ("home", "server"):
        cluster.add_node(name)
    client = cluster.client("home")

    def app():
        ref = yield from client.create("server", "counter", value=0)
        action = client.top_level("T")
        yield from client.invoke(action, ref, "increment", 1)
        yield from client.commit(action)

    cluster.run_process("home", app())
    tracer = cluster.obs.tracer
    [span] = [s for s in tracer.snapshot() if s.kind == "action"]
    assert span.end > span.start              # real simulated duration
    assert survival_report(tracer) == {"T": "committed"}


def test_distributed_make_timeline_shows_concurrent_builds():
    """The fig. 8 picture, from a real run: the two .o targets' serializing
    actions overlap in simulated time; the link follows them."""
    cluster = Cluster(seed=0)
    cluster.observe(history=True)
    for node in ("ws", "n1", "n2", "n3"):
        cluster.add_node(node)
    client = cluster.client("ws")
    placement = {
        "Test": "n1",
        "Test0.o": "n2", "Test0.c": "n2", "Test0.h": "n2",
        "Test1.o": "n3", "Test1.c": "n3", "Test1.h": "n2",
    }
    engine = DistributedMakeEngine(
        cluster, client, parse_makefile(PAPER_EXAMPLE), placement,
        compile_duration=100.0,
    )
    sources = {n: f"// {n}" for n in
               ("Test0.c", "Test0.h", "Test1.c", "Test1.h")}
    cluster.run_process("ws", engine.setup(sources))
    report = cluster.run_process("ws", engine.make())
    assert report.completed

    tracer = cluster.obs.tracer

    def span_of(prefix):
        return next(s for s in tracer.snapshot()
                    if s.name.startswith(f"action:{prefix}")
                    and s.name.endswith(".A"))

    build0 = span_of("make:Test0.o")
    build1 = span_of("make:Test1.o")
    link = span_of("make:Test.")
    # concurrent object builds: the spans overlap
    assert build0.start < build1.end and build1.start < build0.end
    # the link starts only after both finished
    assert link.start >= max(build0.end, build1.end) - 1e-9
    art = action_timeline(tracer, title="fig. 8 from execution", width=70)
    assert "make:Test0.o" in art and "make:Test1.o" in art

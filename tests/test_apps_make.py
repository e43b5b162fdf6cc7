"""Make: parser, dependency graph, local and distributed engines (§4(iv))."""

import pytest

from repro.apps.make.distributed import DistributedMakeEngine
from repro.apps.make.engine import LocalMakeEngine, LogicalClock, initial_file
from repro.apps.make.graph import DependencyGraph
from repro.apps.make.makefile import (
    PAPER_EXAMPLE,
    MakefileError,
    parse_makefile,
)
from repro.apps.trampoline import done, run_synchronously
from repro.cluster.cluster import Cluster
from repro.sim.kernel import Timeout
from repro.stdobjects.file import FileObject


# -- parser ----------------------------------------------------------------

def test_parse_paper_example():
    makefile = parse_makefile(PAPER_EXAMPLE)
    assert makefile.default_goal == "Test"
    assert makefile.rule("Test").prerequisites == ["Test0.o", "Test1.o"]
    assert makefile.rule("Test0.o").prerequisites == ["Test0.h", "Test1.h", "Test0.c"]
    assert makefile.rule("Test1.o").commands == ["cc -c Test1.c"]


def test_parse_ignores_comments_and_blanks():
    makefile = parse_makefile("# build\n\na: b\n\tcmd\n# done\n")
    assert makefile.rule("a").commands == ["cmd"]


def test_parse_rejects_command_outside_rule():
    with pytest.raises(MakefileError):
        parse_makefile("\tcc -c x.c\n")


def test_parse_rejects_missing_colon():
    with pytest.raises(MakefileError):
        parse_makefile("just a line\n")


def test_parse_rejects_duplicate_target():
    with pytest.raises(MakefileError):
        parse_makefile("a: b\na: c\n")


def test_parse_rejects_empty():
    with pytest.raises(MakefileError):
        parse_makefile("# nothing\n")


# -- graph ------------------------------------------------------------------

def test_graph_sources_and_needed():
    graph = DependencyGraph(parse_makefile(PAPER_EXAMPLE))
    assert graph.sources() == {"Test0.h", "Test1.h", "Test0.c", "Test1.c"}
    assert graph.needed("Test") == {"Test", "Test0.o", "Test1.o"}


def test_graph_build_order_respects_dependencies():
    graph = DependencyGraph(parse_makefile(PAPER_EXAMPLE))
    order = graph.build_order("Test")
    assert order.index("Test0.o") < order.index("Test")
    assert order.index("Test1.o") < order.index("Test")


def test_graph_levels_expose_concurrency():
    graph = DependencyGraph(parse_makefile(PAPER_EXAMPLE))
    levels = graph.levels("Test")
    assert levels == [["Test0.o", "Test1.o"], ["Test"]]
    assert graph.max_concurrency("Test") == 2


def test_graph_detects_cycles():
    with pytest.raises(MakefileError):
        DependencyGraph(parse_makefile("a: b\n\tx\nb: a\n\ty\n"))


def test_graph_unknown_goal():
    graph = DependencyGraph(parse_makefile(PAPER_EXAMPLE))
    with pytest.raises(MakefileError):
        graph.needed("nonexistent")


# -- local engine ----------------------------------------------------------------

def build_files(runtime, makefile):
    """The project before any make, in the distributed ``setup`` 's states."""
    sources = {name: f"// {name}"
               for name in sorted(DependencyGraph(makefile).sources())}
    return {name: FileObject(runtime, **initial_file(name, sources))
            for name in [*sources, *makefile.targets()]}


def test_local_make_rebuilds_everything_initially(runtime):
    makefile = parse_makefile(PAPER_EXAMPLE)
    files = build_files(runtime, makefile)
    report = LocalMakeEngine(runtime, makefile, files).make()
    assert report.completed
    assert set(report.rebuilt) == {"Test", "Test0.o", "Test1.o"}
    assert files["Test"].timestamp > files["Test0.o"].timestamp


def test_local_make_noop_when_consistent(runtime):
    makefile = parse_makefile(PAPER_EXAMPLE)
    files = build_files(runtime, makefile)
    clock = LogicalClock()
    LocalMakeEngine(runtime, makefile, files, clock=clock).make()
    report = LocalMakeEngine(runtime, makefile, files, clock=clock).make()
    assert report.rebuilt == []
    assert set(report.up_to_date) == {"Test", "Test0.o", "Test1.o"}


def test_local_make_partial_rebuild_after_touch(runtime):
    makefile = parse_makefile(PAPER_EXAMPLE)
    files = build_files(runtime, makefile)
    clock = LogicalClock()
    LocalMakeEngine(runtime, makefile, files, clock=clock).make()
    with runtime.top_level():
        files["Test1.c"].touch(clock.next())
    report = LocalMakeEngine(runtime, makefile, files, clock=clock).make()
    assert set(report.rebuilt) == {"Test1.o", "Test"}
    assert report.up_to_date == ["Test0.o"]


def test_local_make_failure_preserves_consistent_targets(runtime):
    """Requirement (iii): completed targets survive the failure."""
    makefile = parse_makefile(PAPER_EXAMPLE)
    files = build_files(runtime, makefile)
    clock = LogicalClock()
    report = LocalMakeEngine(
        runtime, makefile, files, clock=clock, fail_before="Test"
    ).make()
    assert not report.completed and report.failed_at == "Test"
    assert set(report.rebuilt) == {"Test0.o", "Test1.o"}
    assert files["Test0.o"].timestamp > 0
    # resuming finishes only the remaining work
    resume = LocalMakeEngine(runtime, makefile, files, clock=clock).make()
    assert resume.rebuilt == ["Test"]
    assert set(resume.up_to_date) == {"Test0.o", "Test1.o"}


def test_local_make_builds_a_shared_prerequisite_once(runtime):
    makefile = parse_makefile(
        "app: left.o right.o\n\tld\nleft.o: util.o\n\tcc\n"
        "right.o: util.o\n\tcc\nutil.o: util.c\n\tcc\n")
    report = LocalMakeEngine(runtime, makefile,
                             build_files(runtime, makefile)).make()
    assert sorted(report.rebuilt) == ["app", "left.o", "right.o", "util.o"]
    assert report.up_to_date == []


def test_a_local_body_that_yields_is_refused():
    def leaky():
        yield Timeout(1.0)

    with pytest.raises(RuntimeError, match="yielded"):
        run_synchronously(leaky())
    assert run_synchronously(done(7)) == 7


def test_local_make_persists_results(runtime):
    makefile = parse_makefile(PAPER_EXAMPLE)
    files = build_files(runtime, makefile)
    LocalMakeEngine(runtime, makefile, files).make()
    stored = runtime.store.read_committed(files["Test"].uid)
    assert stored.payload == files["Test"].snapshot()


# -- distributed engine -------------------------------------------------------------

def make_distributed(seed=0, compile_duration=20.0, fail_before=None,
                     nodes=("client", "n1", "n2", "n3")):
    cluster = Cluster(seed=seed)
    for name in nodes:
        cluster.add_node(name)
    client = cluster.client("client")
    makefile = parse_makefile(PAPER_EXAMPLE)
    placement = {
        "Test": "n1", "Test0.o": "n2", "Test1.o": "n3",
        "Test0.c": "n2", "Test0.h": "n2",
        "Test1.c": "n3", "Test1.h": "n2",
    }
    engine = DistributedMakeEngine(
        cluster, client, makefile, placement,
        compile_duration=compile_duration, fail_before=fail_before,
    )
    sources = {name: f"// {name}" for name in
               ("Test0.c", "Test0.h", "Test1.c", "Test1.h")}
    cluster.run_process("client", engine.setup(sources))
    return cluster, engine


def test_distributed_make_builds_goal():
    cluster, engine = make_distributed()
    report = cluster.run_process("client", engine.make())
    assert report.completed
    assert set(report.rebuilt) == {"Test", "Test0.o", "Test1.o"}
    assert engine.consistent_targets() == ["Test", "Test0.o", "Test1.o"]


def test_distributed_make_concurrency_speedup():
    """Test0.o and Test1.o compile concurrently: the makespan is well under
    three sequential compilations (requirement (i))."""
    compile_duration = 500.0
    cluster, engine = make_distributed(compile_duration=compile_duration)
    start = cluster.kernel.now
    report = cluster.run_process("client", engine.make())
    makespan = cluster.kernel.now - start
    assert report.completed
    # two dependency levels => ~2 compilations of wall clock (plus rpc
    # overhead), well under the 3 compilations a serial build needs.
    assert makespan < 3 * compile_duration * 0.9
    assert makespan >= 2 * compile_duration


def test_distributed_make_idempotent_second_run():
    cluster, engine = make_distributed()
    cluster.run_process("client", engine.make())
    report = cluster.run_process("client", engine.make())
    assert report.rebuilt == []
    assert set(report.up_to_date) == {"Test", "Test0.o", "Test1.o"}


def test_distributed_make_failure_preserves_stable_results():
    """Requirement (iii), distributed: after a failure before the final
    link, the object files' new states are already in their nodes' stable
    stores."""
    cluster, engine = make_distributed(fail_before="Test")
    report = cluster.run_process("client", engine.make())
    assert not report.completed and report.failed_at == "Test"
    assert engine.stable_timestamp("Test0.o") > 1.0
    assert engine.stable_timestamp("Test1.o") > 1.0
    assert engine.stable_timestamp("Test") == 0.0
    # a fresh engine run (new client, same files) completes the build
    engine.fail_before = None
    resume = cluster.run_process("client", engine.make())
    assert resume.rebuilt == ["Test"]


def test_distributed_make_retries_past_server_crash():
    """A file server crashes mid-build: the affected target's attempt
    aborts, the engine retries after the restart, and the build completes
    (requirement (iii) plus repair-within-finite-time)."""
    cluster, engine = make_distributed(compile_duration=50.0)
    engine.retry_pause = 40.0
    # n3 hosts Test1.o and Test1.c; crash it mid-compile, restart shortly
    cluster.crash_at("n3", cluster.kernel.now + 30.0)
    cluster.restart_at("n3", cluster.kernel.now + 60.0)
    report = cluster.run_process("client", engine.make())
    assert report.completed, report.failed_at
    assert set(report.rebuilt) >= {"Test", "Test0.o", "Test1.o"}
    assert engine.consistent_targets() == ["Test", "Test0.o", "Test1.o"]


def test_distributed_make_gives_up_after_retries_exhausted():
    cluster, engine = make_distributed(compile_duration=50.0)
    engine.build_retries = 1
    engine.retry_pause = 10.0
    cluster.crash("n3")  # never restarted within the attempts
    report = cluster.run_process("client", engine.make())
    assert not report.completed
    assert report.failed_at is not None


def test_distributed_make_touch_forces_partial_rebuild():
    cluster, engine = make_distributed()
    cluster.run_process("client", engine.make())
    cluster.run_process("client", engine.touch_source("Test1.c"))
    report = cluster.run_process("client", engine.make())
    assert set(report.rebuilt) == {"Test1.o", "Test"}
    assert report.up_to_date == ["Test0.o"]


# -- both engines ---------------------------------------------------------------

#: a failed build, its resumption, a no-op, a touch and a partial rebuild
PARITY_STEPS = [("make", "Test"), ("make", None), ("make", None),
                ("touch", "Test1.c"), ("make", None)]


def test_local_and_distributed_make_decide_alike(runtime):
    """Every step gives the same report on both engines (order aside: the
    distributed engine builds prerequisites concurrently)."""
    makefile = parse_makefile(PAPER_EXAMPLE)
    files = build_files(runtime, makefile)
    clock = LogicalClock()
    local = LocalMakeEngine(runtime, makefile, files, clock=clock)
    cluster, remote = make_distributed()

    def local_step(kind, arg):
        if kind == "touch":
            with runtime.top_level():
                files[arg].touch(clock.next())
            return None
        local.fail_before = arg
        return local.make()

    def remote_step(kind, arg):
        if kind == "touch":
            return cluster.run_process("client", remote.touch_source(arg))
        remote.fail_before = arg
        return cluster.run_process("client", remote.make())

    def summary(report):
        return report and (set(report.rebuilt), set(report.up_to_date),
                           report.failed_at)

    for kind, arg in PARITY_STEPS:
        assert (summary(local_step(kind, arg))
                == summary(remote_step(kind, arg))), (kind, arg)

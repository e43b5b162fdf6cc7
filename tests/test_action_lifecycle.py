"""Action lifecycle: status transitions, scopes, listeners, errors."""

import pytest

from repro.actions.action import Action
from repro.actions.status import ActionStatus, Outcome
from repro.cluster.cluster import Cluster
from repro.errors import InvalidActionState, NoCurrentAction
from repro.runtime.context import current_action, require_current_action
from repro.stdobjects import Counter


class LocalTree:
    """The tree cases' node kind: ``Action`` s of a ``LocalRuntime``."""

    def __init__(self, runtime):
        self.runtime = runtime
        self.fresh_colour = runtime.colours.fresh

    def node(self, colours, parent=None):
        return Action(self.runtime, colours, parent=parent)

    def end(self, node, how):
        getattr(node, how)()

    def write_in(self, node, colour):
        node.record_write(Counter(self.runtime, value=0), colour)


class ClusterTree:
    """The other node kind: ``ClusterAction`` s built through a client."""

    def __init__(self):
        self.cluster = Cluster(seed=0)
        self.cluster.add_node("home")
        self.client = self.cluster.client("home")
        self.fresh_colour = self.client.fresh_colour

    def node(self, colours, parent=None):
        return self.client.coloured(colours, parent=parent)

    def end(self, node, how):
        self.cluster.run_process("home", getattr(self.client, how)(node))

    def write_in(self, node, colour):
        def app():
            ref = yield from self.client.create("home", "counter", value=0)
            yield from self.client.invoke(node, ref, "increment", 1,
                                          colour=colour)

        self.cluster.run_process("home", app())


def node_kinds(runtime):
    """Every tree rule lives in ``ActionNode``: each case below runs once
    per kind of node built on it."""
    return [LocalTree(runtime), ClusterTree()]


def test_scope_commits_on_clean_exit(runtime):
    scope = runtime.top_level(name="t")
    with scope as action:
        assert action.status is ActionStatus.ACTIVE
    assert action.status is ActionStatus.COMMITTED
    assert scope.outcome is Outcome.COMMITTED


def test_scope_aborts_on_exception_and_reraises(runtime):
    scope = runtime.top_level(name="t")
    with pytest.raises(ValueError):
        with scope as action:
            raise ValueError("app error")
    assert action.status is ActionStatus.ABORTED
    assert scope.outcome is Outcome.ABORTED


def test_manual_commit_inside_scope_respected(runtime):
    scope = runtime.top_level(name="t")
    with scope as action:
        runtime.commit_action(action)
    assert scope.outcome is Outcome.COMMITTED


def test_manual_abort_inside_scope_respected(runtime):
    scope = runtime.top_level(name="t")
    with scope as action:
        runtime.abort_action(action)
    assert scope.outcome is Outcome.ABORTED


def test_commit_twice_raises(runtime):
    with runtime.top_level() as action:
        pass
    with pytest.raises(InvalidActionState):
        action.commit()


def test_abort_after_commit_raises(runtime):
    with runtime.top_level() as action:
        pass
    with pytest.raises(InvalidActionState):
        action.abort()


def test_abort_is_idempotent(runtime):
    scope = runtime.top_level()
    with scope as action:
        runtime.abort_action(action)
    assert runtime.abort_action(action) is Outcome.ABORTED


def test_ambient_context_tracks_nesting(runtime):
    assert current_action() is None
    with runtime.top_level(name="outer") as outer:
        assert current_action() is outer
        with runtime.atomic(name="inner") as inner:
            assert current_action() is inner
        assert current_action() is outer
    assert current_action() is None


def test_require_current_action_raises_outside_scope():
    with pytest.raises(NoCurrentAction):
        require_current_action()


def test_action_needs_at_least_one_colour(runtime):
    for tree in node_kinds(runtime):
        with pytest.raises(InvalidActionState):
            tree.node([])


def test_cannot_nest_under_terminated_action(runtime):
    for tree in node_kinds(runtime):
        for how in ("commit", "abort"):
            action = tree.node([tree.fresh_colour()])
            tree.end(action, how)
            with pytest.raises(InvalidActionState):
                tree.node(list(action.colours), parent=action)


def test_path_encodes_ancestry(runtime):
    for tree in node_kinds(runtime):
        a = tree.node([tree.fresh_colour()])
        b = tree.node(a.colours, parent=a)
        c = tree.node(b.colours, parent=b)
        assert c.path == (a.uid, b.uid, c.uid)
        assert a.is_ancestor_of(c)
        assert c.is_ancestor_of(c)
        assert not c.is_ancestor_of(a)
        assert c.root() is a
        assert c.depth() == 2


def test_outcome_listener_fires_once(runtime):
    seen = []
    with runtime.top_level() as action:
        action.on_outcome(lambda a, o: seen.append(o))
    assert seen == [Outcome.COMMITTED]


def test_outcome_listener_on_abort(runtime):
    seen = []
    with pytest.raises(RuntimeError):
        with runtime.top_level() as action:
            action.on_outcome(lambda a, o: seen.append(o))
            raise RuntimeError
    assert seen == [Outcome.ABORTED]


def test_record_write_requires_possessed_colour(runtime):
    for tree in node_kinds(runtime):
        foreign = tree.fresh_colour("foreign")
        action = tree.node([tree.fresh_colour()])
        with pytest.raises(InvalidActionState):
            tree.write_in(action, foreign)
        tree.end(action, "abort")


def test_single_colour_helper(runtime):
    for tree in node_kinds(runtime):
        red, blue = tree.fresh_colour("red"), tree.fresh_colour("blue")
        assert tree.node([red]).single_colour() == red
        with pytest.raises(InvalidActionState):
            tree.node([red, blue]).single_colour()


def test_lock_colour_resolution_order(runtime):
    for tree in node_kinds(runtime):
        red, blue = tree.fresh_colour("red"), tree.fresh_colour("blue")
        action = tree.node([red, blue])
        with pytest.raises(InvalidActionState):
            action.lock_colour()
        assert action.lock_colour(red) == red
        action.default_colour = blue
        assert action.lock_colour() == blue

"""Distributed compensation (§3.4) and the bulletin board over the cluster."""

import pytest

from repro.actions.status import Outcome
from repro.apps.bulletin import BulletinBoard
from repro.cluster.cluster import Cluster
from repro.cluster.compensation import (
    ClusterCompensationRecord,
    ClusterCompensationScope,
)
from repro.errors import InvalidActionState
from repro.structures.schemes import CompensationRecord


def make_cluster():
    cluster = Cluster(seed=0)
    cluster.classes[BulletinBoard.type_name] = BulletinBoard
    for name in ("app-node", "board-node"):
        cluster.add_node(name)
    return cluster


def test_compensation_runs_on_abort():
    cluster = make_cluster()
    client = cluster.client("app-node")

    def app():
        board = yield from client.create("board-node", "bulletin_board",
                                         name="dev")
        app_action = client.top_level("app")
        scope = ClusterCompensationScope(client, app_action)
        # the post commits independently of the application action
        post = client.independent_top_level(app_action, name="post")
        post_id = yield from client.invoke(post, board, "post", "ann",
                                           "release at 5pm")
        yield from client.commit(post)

        def retract(action, pid=post_id):
            yield from client.invoke(action, board, "retract", pid)

        scope.register(f"retract {post_id}", lambda a: retract(a))
        yield from client.abort(app_action)
        records = yield from scope.settle()
        reader = client.top_level("r")
        posts = yield from client.invoke(reader, board, "read_all")
        yield from client.commit(reader)
        return records, posts

    records, posts = cluster.run_process("app-node", app())
    assert len(records) == 1 and records[0].outcome is Outcome.COMMITTED
    assert posts == []  # posted then compensated


def test_compensation_skipped_on_commit():
    cluster = make_cluster()
    client = cluster.client("app-node")

    def app():
        board = yield from client.create("board-node", "bulletin_board",
                                         name="dev")
        app_action = client.top_level("app")
        scope = ClusterCompensationScope(client, app_action)
        post = client.independent_top_level(app_action, name="post")
        post_id = yield from client.invoke(post, board, "post", "bob", "hi")
        yield from client.commit(post)

        def retract(action, pid=post_id):
            yield from client.invoke(action, board, "retract", pid)

        scope.register("retract", lambda a: retract(a))
        yield from client.commit(app_action)
        records = yield from scope.settle()
        reader = client.top_level("r")
        posts = yield from client.invoke(reader, board, "read_all")
        yield from client.commit(reader)
        return records, posts

    records, posts = cluster.run_process("app-node", app())
    assert records == []
    assert len(posts) == 1


def test_failing_compensator_does_not_stop_rest():
    cluster = make_cluster()
    client = cluster.client("app-node")
    ran = []

    def app():
        app_action = client.top_level("app")
        scope = ClusterCompensationScope(client, app_action)

        def good(action, label):
            ran.append(label)
            return
            yield  # pragma: no cover - keep it a generator

        def bad(action):
            raise ValueError("broken compensator")
            yield  # pragma: no cover

        scope.register("one", lambda a: good(a, "one"))
        scope.register("bad", lambda a: bad(a))
        scope.register("two", lambda a: good(a, "two"))
        yield from client.abort(app_action)
        records = yield from scope.settle()
        return [(r.description, r.outcome) for r in records]

    results = cluster.run_process("app-node", app())
    assert ran == ["two", "one"]  # reverse order, bad one skipped over
    outcomes = dict(results)
    assert outcomes["bad"] is Outcome.ABORTED
    assert outcomes["one"] is Outcome.COMMITTED


def test_settling_early_keeps_the_compensators_armed():
    """``settle()`` while the governing action is still running (a
    ``finally`` reached before any abort) must not disarm anything: it
    raises, and the settle after the abort still compensates — once."""
    cluster = make_cluster()
    client = cluster.client("app-node")
    ran = []

    def app():
        app_action = client.top_level("app")
        scope = ClusterCompensationScope(client, app_action)

        def undo(action):
            ran.append(action.name)
            return
            yield  # pragma: no cover - keep it a generator

        record = scope.register("undo", undo)
        assert type(record) is CompensationRecord is ClusterCompensationRecord
        with pytest.raises(InvalidActionState):
            yield from scope.settle()
        assert scope.records == [record] and not record.ran
        yield from client.abort(app_action)
        first = yield from scope.settle()
        second = yield from scope.settle()
        return first, second

    first, second = cluster.run_process("app-node", app())
    assert ran == ["compensate:undo"]
    assert [(r.description, r.ran, r.outcome) for r in first] == [
        ("undo", True, Outcome.COMMITTED)]
    assert second == []


def test_bulletin_board_posts_survive_invoker_abort_cluster():
    """§4(i) across the wire: the post is in the board node's stable store
    even though the invoking application aborted."""
    cluster = make_cluster()
    client = cluster.client("app-node")

    def app():
        board = yield from client.create("board-node", "bulletin_board",
                                         name="dev")
        app_action = client.top_level("app")
        post = client.independent_top_level(app_action, name="post")
        yield from client.invoke(post, board, "post", "ann", "notice")
        yield from client.commit(post)
        yield from client.abort(app_action)
        return board

    board = cluster.run_process("app-node", app())
    stored = cluster.nodes["board-node"].stable_store.read_committed(board.uid)
    fresh = BulletinBoard.__new__(BulletinBoard)
    from repro.objects.state import ObjectState
    fresh.restore_state(ObjectState.from_bytes(stored.payload))
    assert [p["text"] for p in fresh.posts] == ["notice"]

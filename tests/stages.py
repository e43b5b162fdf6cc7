"""The structures' two calling conventions behind one synchronous face.

The colouring schemes are written once (:mod:`repro.structures.schemes`);
what differs per runtime is how a structure is *driven* — ``with`` scopes
over in-process objects, or generators over object servers.  A stage hides
that difference one operation at a time, so a structure case is one body
run over both: ``for stage in stages(runtime): ...`` (the in-body loop of
``LocalTree``/``ClusterTree`` in ``test_action_lifecycle``).

Every stage has ``factory`` — what the schemes build from, so
``independence_markers(stage.factory, ...)`` and
``stage.factory.fresh_colour(...)`` read the same on both — and ends with
:meth:`finish`: nothing may be left behind.
"""

import itertools

from repro.cluster.cluster import Cluster
from repro.cluster.structures import (
    ClusterGluedGroup,
    ClusterSerializingAction,
)
from repro.cluster.structures import (
    independent_relative_to as cluster_relative_to,
)
from repro.errors import LockTimeout
from repro.objects.state import ObjectState
from repro.stdobjects import Counter
from repro.structures import (
    GluedGroup,
    SerializingAction,
    independent_relative_to,
    independent_top_level,
)
from repro.structures.glued import MemberScope


class LocalStage:
    """Counters in a ``LocalRuntime``; members are their scopes' actions."""

    def __init__(self, runtime):
        self.runtime = self.factory = runtime

    # -- objects ---------------------------------------------------------------

    def counter(self):
        return Counter(self.runtime, value=0)

    def increment(self, action, counter, amount=1):
        counter.increment(amount, action=action)

    def get(self, action, counter):
        return counter.get(action=action)

    def value(self, counter):
        """The live value (undone by an abort, not yet necessarily stable)."""
        return counter.value

    def permanent(self, counter):
        stored = self.runtime.store.read_committed(counter.uid)
        return ObjectState.from_bytes(stored.payload).unpack_int()

    def lockable(self, counter, mode):
        """Whether an outsider (a fresh top-level action) gets the lock."""
        with self.runtime.top_level(name="outsider") as outsider:
            try:
                self.runtime.acquire(outsider, counter, mode, timeout=0.05)
                return True
            except LockTimeout:
                return False
            finally:
                self.runtime.abort_action(outsider)

    # -- actions ---------------------------------------------------------------

    def coloured(self, colours, parent=None, name=""):
        return self.runtime.new_action(colours, parent, name)

    def end(self, action, how):
        """``how`` is "commit" or "abort"."""
        getattr(self.runtime, f"{how}_action")(action)

    # -- structures ------------------------------------------------------------

    def independent(self, parent, name):
        return independent_top_level(self.runtime, parent, name).action

    def relative_to(self, anchor, parent, **options):
        return independent_relative_to(
            self.runtime, anchor, parent=parent, **options).action

    def serializing(self, name, parent=None):
        return SerializingAction(self.runtime, parent, name)

    def glued(self, name, parent=None):
        return GluedGroup(self.runtime, parent, name)

    def constituent(self, structure, name=""):
        return structure.constituent(name).action

    def member(self, group, name=""):
        return group.member(name).action

    def hand_over(self, group, member, *counters):
        MemberScope(group, member).hand_over(*counters)

    def close(self, structure):
        structure.close()

    def cancel(self, structure):
        structure.cancel()

    def finish(self):
        assert list(self.runtime.locks.tables()) == []


class ClusterStage:
    """Counters spread over three object servers, driven from a fourth
    node; each operation is one simulation process run to completion."""

    def __init__(self):
        # a short lock-wait bound, so a refused outsider fails fast
        self.cluster = Cluster(seed=0, lock_wait_timeout=5.0)
        for name in ("home", "s1", "s2", "s3"):
            self.cluster.add_node(name)
        self.client = self.factory = self.cluster.client("home")
        self._placement = itertools.cycle(("s1", "s2", "s3"))

    def _run(self, generator):
        return self.cluster.run_process("home", generator)

    # -- objects ---------------------------------------------------------------

    def counter(self):
        return self._run(
            self.client.create(next(self._placement), "counter", value=0))

    def increment(self, action, ref, amount=1):
        self._run(self.client.invoke(action, ref, "increment", amount))

    def get(self, action, ref):
        return self._run(self.client.invoke(action, ref, "get"))

    def value(self, ref):
        return self.cluster.servers[ref.node].objects[ref.uid].value

    def permanent(self, ref):
        stored = self.cluster.nodes[ref.node].stable_store.read_committed(
            ref.uid)
        return ObjectState.from_bytes(stored.payload).unpack_int()

    def lockable(self, ref, mode):
        def probe():
            outsider = self.client.top_level("outsider")
            try:
                yield from self.client.lock(outsider, ref, mode)
                return True
            except LockTimeout:
                return False
            finally:
                if not outsider.status.terminated:
                    yield from self.client.abort(outsider)

        return self._run(probe())

    # -- actions ---------------------------------------------------------------

    def coloured(self, colours, parent=None, name=""):
        return self.client.coloured(colours, parent, name)

    def end(self, action, how):
        self._run(getattr(self.client, how)(action))

    # -- structures ------------------------------------------------------------

    def independent(self, parent, name):
        return self.client.independent_top_level(parent, name)

    def relative_to(self, anchor, parent, **options):
        return cluster_relative_to(self.client, anchor, parent, **options)

    def serializing(self, name, parent=None):
        return ClusterSerializingAction(self.client, parent, name)

    def glued(self, name, parent=None):
        return ClusterGluedGroup(self.client, parent, name)

    def constituent(self, structure, name=""):
        return structure.constituent(name)

    def member(self, group, name=""):
        return group.member(name)

    def hand_over(self, group, member, *refs):
        self._run(group.hand_over(member, *refs))

    def close(self, structure):
        self._run(structure.close())

    def cancel(self, structure):
        self._run(structure.cancel())

    def finish(self):
        assert self.cluster.obs.auditor.report() == []
        assert self.cluster.obs.bus.errors == {}
        assert not self.client.live_actions
        for server in self.cluster.servers.values():
            assert server.registry.snapshot()["held"] == 0
            assert server.mirrors == {}


def stages(runtime):
    """Each structure case runs once per calling convention."""
    return [LocalStage(runtime), ClusterStage()]

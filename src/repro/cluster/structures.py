"""Distributed action structures: §3 over the cluster.

The colour schemes are the ones :mod:`repro.structures` uses
(:mod:`repro.structures.schemes`, with the
:class:`~repro.cluster.client.ClusterClient` as the factory); this module
is the cluster's calling convention — members are bare
:class:`~repro.cluster.client.ClusterAction` s, everything that talks to a
server is a generator.  Locks live on the object servers; the control
action's retained locks therefore pin objects across the whole cluster
between constituents — the distributed-make scenario of fig. 8.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.client import ClusterAction, ClusterClient, ObjectRef
from repro.colours.colour import Colour
from repro.locking.modes import LockMode
from repro.structures.schemes import (
    ControlStructure,
    Serializing,
    independence_markers,
    marker_for,
)

__all__ = ["ClusterSerializingAction", "ClusterGluedGroup",
           "independence_markers", "independent_relative_to"]


class ClusterControl:
    """Ending a control structure, in generator form."""

    def close(self):
        """Generator: commit the control action (release retained locks)."""
        return self.factory.commit(self.control)

    def cancel(self):
        """Generator: abort the control action; committed members stay."""
        return self.factory.abort(self.control)


class ClusterSerializingAction(ClusterControl, Serializing):
    """Distributed serializing action (figs. 3/11):
    ``ClusterSerializingAction(client, parent=None, name="serializing")``."""

    def constituent(self, name: str = "") -> ClusterAction:
        """The next constituent's action (run it with :meth:`run_constituent`)."""
        return self.new_member(name)

    def run_constituent(self, action: ClusterAction, body):
        """Generator: run a constituent body under scope semantics."""
        return self.factory.run_scope(action, body)


class ClusterGluedGroup(ClusterControl, ControlStructure):
    """Distributed glued actions (figs. 5/6/12):
    ``ClusterGluedGroup(client, parent=None, name="glued")``."""

    def member(self, name: str = "") -> ClusterAction:
        """The next member's action."""
        return self.new_member(name)

    def hand_over(self, action: ClusterAction, *refs: ObjectRef):
        """Generator: pin objects in the control colour for the next member."""
        for ref in refs:
            yield from self.factory.lock(
                action, ref, LockMode.EXCLUSIVE_READ, colour=self.control_colour
            )


def independent_relative_to(client: ClusterClient, anchor: ClusterAction,
                            parent: ClusterAction,
                            marker: Optional[Colour] = None,
                            name: str = "nlevel-independent") -> ClusterAction:
    """An action nested under ``parent`` whose fate is decided at ``anchor``
    (§5.6, fig. 15); create the anchor with :func:`independence_markers`."""
    return client.coloured([marker_for(anchor, parent, marker)], parent, name)

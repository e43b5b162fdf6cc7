"""The colouring schemes of §§5.3–5.6, written once (DESIGN.md §3).

"The application builder thinks in terms of the action structures … and
the colour assignments are generated automatically" (§6).  This module is
that generator: every decision about *which colours an action of a
structure gets*, which of them is its default, and which it shadows its
locks in.  The decisions are functions over the one action tree
(:class:`~repro.actions.node.ActionNode`) and a two-method *factory* that
both runtimes are — ``fresh_colour(name)`` and ``new_action(colours,
parent, name)`` returning the bare action
(:class:`~repro.runtime.runtime.LocalRuntime`,
:class:`~repro.cluster.client.ClusterClient`).

What is *not* here is the calling convention — ``with`` scopes and outcome
listeners locally (:mod:`repro.structures`), generators and an explicit
``settle`` on the cluster (:mod:`repro.cluster.structures`,
:mod:`repro.cluster.compensation`).

=================  ===========  ====================  =======  =========
structure          role         colour set            default  companion
=================  ===========  ====================  =======  =========
serializing (11)   control A    {control}             —        —
                   constituent  {control, own data}   data     control
glued (12)         control G    {control}             —        —
                   member       {control, own data}   data     —
independent (13b)  invoked      {fresh}               —        —
n-level (15)       anchor       working + markers     —        —
                   invoked      {one marker}          —        —
=================  ===========  ====================  =======  =========
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.actions.node import ActionNode
from repro.actions.status import ActionStatus, Outcome
from repro.colours.colour import Colour
from repro.errors import ColourError, InvalidActionState


class ControlStructure:
    """A control action in a fresh colour plus numbered members (figs. 11/12).

    The control action writes nothing, so its abort undoes nothing: members
    are coloured {control, fresh-data} and work in their data colour, for
    which no ancestor exists — their commit is permanent.  What the control
    action *retains* is whatever a member locked in the control colour.
    """

    #: True: a member shadows *every* lock in the control colour, so the
    #: control action retains them all (fig. 11, serializing — §3.2's
    #: "special case in which every object is handed over").  False: only
    #: what the member explicitly hands over (fig. 12, glued).
    retains_all = False
    #: name suffixes of the control action and of the numbered members
    control_role, member_role = "G", "A"

    def __init__(self, factory, parent=None, name: str = "glued"):
        self.factory = factory
        self.name = name
        self.control_colour: Colour = factory.fresh_colour(f"{name}.control")
        self.control: ActionNode = factory.new_action(
            [self.control_colour], parent, f"{name}.{self.control_role}")
        self.members: List[ActionNode] = []

    def new_member(self, name: str = "") -> ActionNode:
        """The next member's bare action; refused once the control ended."""
        if self.control.status is not ActionStatus.ACTIVE:
            raise InvalidActionState(f"{self.name}: structure already closed")
        label = name or f"{self.name}.{self.member_role}{len(self.members) + 1}"
        data_colour = self.factory.fresh_colour(f"{label}.data")
        action = self.factory.new_action(
            [self.control_colour, data_colour], self.control, label)
        action.default_colour = data_colour
        if self.retains_all:
            action.companion_colour = self.control_colour
        self.members.append(action)
        return action


class Serializing(ControlStructure):
    """Fig. 11: the control action A retains every constituent's locks."""

    retains_all = True
    control_role, member_role = "A", "c"

    def __init__(self, factory, parent=None, name: str = "serializing"):
        super().__init__(factory, parent, name)
        #: the members, under §3.1's word for them
        self.constituents = self.members


def independent_action(factory, parent, name: str) -> ActionNode:
    """Fig. 13(b): nested in the invoker (so it may be granted the
    invoker's locks), coloured with one fresh colour (so it has no
    same-coloured ancestor: top-level for permanence and for abort)."""
    return factory.new_action(
        [factory.fresh_colour(f"{name}.colour")], parent, name)


def independence_markers(factory, count: int = 1,
                         name: str = "marker") -> List[Colour]:
    """Fresh colours to add to a prospective anchor action's colour set."""
    return [factory.fresh_colour(f"{name}{i + 1}") for i in range(count)]


def marker_for(anchor: ActionNode, invoker: Optional[ActionNode],
               marker: Optional[Colour] = None) -> Colour:
    """Fig. 15: the one colour of an action invoked under ``invoker`` whose
    fate is decided at ``anchor``.

    It must be a colour the anchor possesses and no action from the invoker
    up to the anchor does — otherwise that intermediate would capture the
    commit routing.  ``marker`` names one; else the oldest usable colour.
    """
    taken, walker = set(), invoker
    while walker is not None and walker.uid != anchor.uid:
        taken |= walker.colours
        walker = walker.parent
    if walker is None:
        raise ColourError(
            f"anchor {anchor.name} is not an ancestor of the invoking action")
    if marker is None:
        usable = sorted(anchor.colours - taken, key=lambda c: c.uid)
        if not usable:
            raise ColourError(
                f"anchor {anchor.name} has no colour unused by intermediate "
                f"actions; create it with independence_markers(...) colours")
        return usable[0]
    if marker not in anchor.colours:
        raise ColourError(f"anchor {anchor.name} does not possess marker {marker}")
    if marker in taken:
        raise ColourError(
            f"marker {marker} is also held by an intermediate action; "
            f"commit routing would stop there")
    return marker


@dataclass
class CompensationRecord:
    """One armed compensator: called with its own fresh top-level action."""

    description: str
    compensator: Callable[[Any], Any]
    ran: bool = False
    outcome: Optional[Outcome] = None


class Compensations:
    """§3.4: compensators armed against one governing action.

    A committed top-level action can only be "undone" by application
    specific compensation; register one compensator per committed piece
    of work, and once the governing action has ended :meth:`take` says
    which to run.
    """

    def __init__(self, governing: ActionNode):
        self.governing = governing
        self.records: List[CompensationRecord] = []

    def register(self, description: str,
                 compensator: Callable[[Any], Any]) -> CompensationRecord:
        """Arm a compensator for one committed piece of work."""
        record = CompensationRecord(description, compensator)
        self.records.append(record)
        return record

    def discard(self, record: CompensationRecord) -> None:
        """Disarm a compensator (the work no longer needs compensating)."""
        if record in self.records:
            self.records.remove(record)

    def take(self) -> List[CompensationRecord]:
        """Disarm everything; the records to run now, last registered first.

        None if the governing action committed, all if it aborted.  While
        it is still running this raises and the records stay armed.
        """
        if not self.governing.status.terminated:
            raise InvalidActionState(
                f"{self.governing.name} is {self.governing.status.value}; "
                f"compensation is decided when it ends")
        pending, self.records = self.records[::-1], []
        return pending if self.governing.status is ActionStatus.ABORTED else []

"""The action tree: one node type for every runtime.

The paper states its structural rules over *one* tree of coloured actions,
wherever the objects live.  :class:`ActionNode` is that tree — identity,
nesting, the static colour set, status — and the rules that need nothing
else, written once:

- nesting (§2): a child may only be created under an ACTIVE parent;
- lock-colour resolution (§5.3): explicit, else the declared default, else
  the single colour;
- commit routing (§5.2, :meth:`ActionNode.routes`): for each colour, locks
  and undo responsibility pass to the closest ancestor possessing it; with
  no such ancestor the action is outermost for the colour;
- the child rule (§3.3, :meth:`ActionNode.dependants`): children sharing a
  colour with an ending action are bound to its fate, colour-disjoint
  children are independent and survive it.

What an action *holds* and how it commits is per runtime:
:class:`~repro.actions.action.Action` keeps an undo ledger and persists
through a :class:`~repro.runtime.runtime.LocalRuntime`,
:class:`~repro.cluster.client.ClusterAction` keeps involvement maps that a
:class:`~repro.cluster.client.ClusterClient` turns into messages.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.actions.status import ActionStatus
from repro.colours.colour import Colour, colour_set
from repro.errors import InvalidActionState
from repro.util.uid import Uid


class ActionNode:
    """One (possibly multi-coloured) action in the tree.

    Implements the :class:`~repro.locking.owner.LockOwner` interface (uid,
    path, colours), so instances are handed directly to a lock registry.
    """

    #: node the action's client runs on, where its owner is not simply the
    #: reporting runtime (cluster actions: deadlock probes route here)
    home = ""
    #: the ``action:<name>`` span, once a hub has been told of the action
    #: (:meth:`repro.obs.hub.Observability.action_begun`)
    _obs_span = None

    def __init__(self, uid: Uid, colours: Iterable[Colour],
                 parent: Optional["ActionNode"] = None, name: str = ""):
        self.uid = uid
        self.colours: FrozenSet[Colour] = colour_set(colours)
        if not self.colours:
            raise InvalidActionState("an action needs at least one colour")
        self.parent = parent
        self.name = name or f"{uid.namespace}-{uid.sequence}"
        self.status = ActionStatus.ACTIVE
        self.children: List["ActionNode"] = []
        self.path: Tuple[Uid, ...] = (parent.path + (uid,)) if parent else (uid,)
        #: colour used when a lock request names none (multi-coloured actions)
        self.default_colour: Optional[Colour] = None
        #: §5.3 companion scheme: every lock taken in another colour is
        #: shadowed in this colour (READ->READ, WRITE/EXCLUSIVE_READ->
        #: EXCLUSIVE_READ), so the enclosing control action retains all of
        #: this action's locks — the serializing-action behaviour.
        self.companion_colour: Optional[Colour] = None
        if parent is not None:
            parent._adopt(self)

    # -- tree and ancestry ----------------------------------------------------

    def is_ancestor_of(self, other: "ActionNode") -> bool:
        """Inclusive ancestry (an action is its own ancestor, per Moss)."""
        return self.uid in other.path

    def closest_ancestor_with(self, colour: Colour) -> Optional["ActionNode"]:
        """Closest *proper* ancestor possessing ``colour`` (commit routing)."""
        ancestor = self.parent
        while ancestor is not None and colour not in ancestor.colours:
            ancestor = ancestor.parent
        return ancestor

    def root(self) -> "ActionNode":
        """The top of this action's tree."""
        action = self
        while action.parent is not None:
            action = action.parent
        return action

    def depth(self) -> int:
        """Nesting depth at creation (a top-level action has depth 0)."""
        return len(self.path) - 1

    def _adopt(self, child: "ActionNode") -> None:
        if self.status is not ActionStatus.ACTIVE:
            raise InvalidActionState(
                f"cannot nest under {self.name} in state {self.status.value}"
            )
        self.children.append(child)

    def _orphan(self, child: "ActionNode") -> None:
        if child in self.children:
            self.children.remove(child)

    # -- colours --------------------------------------------------------------

    def single_colour(self) -> Colour:
        """The action's colour, when it has exactly one (atomic actions)."""
        if len(self.colours) != 1:
            raise InvalidActionState(
                f"{self.name} has {len(self.colours)} colours; caller must name one"
            )
        return next(iter(self.colours))

    def lock_colour(self, requested: Optional[Colour] = None) -> Colour:
        """Resolve the colour for a lock request: explicit, default, or single."""
        if requested is not None:
            return requested
        if self.default_colour is not None:
            return self.default_colour
        return self.single_colour()

    def require_colour(self, colour: Colour) -> None:
        """Raise unless the action possesses ``colour``."""
        if colour not in self.colours:
            raise InvalidActionState(
                f"{self.name} does not possess colour {colour}"
            )

    # -- status and termination -----------------------------------------------

    def require(self, status: ActionStatus) -> None:
        """Raise unless the action is in ``status``."""
        if self.status is not status:
            raise InvalidActionState(
                f"{self.name} is {self.status.value}, expected {status.value}"
            )

    def routes(self) -> List[Tuple[Colour, Optional["ActionNode"]]]:
        """The §5.2 commit rule: per colour, in uid order, the closest
        ancestor possessing it — who inherits the colour's locks and undo
        responsibility — or ``None``: the action is outermost for the
        colour, whose updates become permanent."""
        return [(colour, self.closest_ancestor_with(colour))
                for colour in sorted(self.colours, key=lambda c: c.uid)]

    def dependants(self) -> Iterator["ActionNode"]:
        """Settle the children of an action that is ending (§3.3).

        Yields, one by one, each running child sharing at least one colour
        with this action: its fate is bound to ours, and the caller aborts
        it before asking for the next.  Colour-disjoint children are
        *independent* — they are detached to the nearest live ancestor
        here, in the same per-child order, and keep running.  An abort or
        a detach can hand us new children (grandchildren bubbling up), so
        this runs until quiescent.
        """
        while True:
            running = [child for child in self.children
                       if not child.status.terminated]
            if not running:
                return
            for child in running:
                if child.colours & self.colours:
                    yield child
                else:
                    child._detach_to_live_ancestor()

    def _detach_to_live_ancestor(self) -> None:
        old_parent = self.parent
        if old_parent is not None:
            old_parent._orphan(self)
        ancestor = old_parent.parent if old_parent is not None else None
        while ancestor is not None and ancestor.status.terminated:
            ancestor = ancestor.parent
        self.parent = ancestor
        if ancestor is not None:
            ancestor.children.append(self)

    def seal(self, status: ActionStatus) -> None:
        """Record the final ``status`` and leave the parent's child list."""
        self.status = status
        if self.parent is not None:
            self.parent._orphan(self)

    def __repr__(self) -> str:
        shades = ",".join(sorted(str(c) for c in self.colours))
        return f"<{type(self).__name__} {self.name} [{shades}] {self.status.value}>"

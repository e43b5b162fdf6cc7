"""The reconstructed world: what the event stream says is running, held,
awaited and deciding, folded once for every reader.

The invariant auditor and the postmortem engine judge the same state: whose
action is nested in whose, who holds which lock in which colour, what each
2PC round was told.  A :class:`World` folds that state from the obs event
stream once.  Its *users* attach with a handler table
(:meth:`World.attach`) and are called with each event they read **before**
it is folded, so a check sees the world as it stood when the event
happened.  On a hub the World is the one reconstruction subscriber and
reads the union of its users' kinds; an offline replay (``python -m
repro.obs audit|why``) feeds a World of its own.  It imports nothing from
the runtimes: rebuilt from events alone, it is the independent view of the
lock tables that the auditor checks them against.

It keeps:

- one :class:`Action` per action uid: parent, colours, begin and end, and
  the failures, lock refusals and 2PC rounds a postmortem reads;
- :attr:`World.holds`: per ``(node, object)``, per owner, one :class:`Hold`
  per record the lock table keeps — the data modes of one colour join into
  one record, each operation group is a record of its own — and the last
  record each owner released per ``(node, object)``;
- the latest lock wait per owner, one :class:`Txn` per 2PC round, and the
  tick at which each node first crashed or restarted.

**Forgetting.**  A top-level action and everything nested in it — a *tree*
— is dropped whole, with what every user keeps for it, once

1. every member has ended,
2. no member holds anything here,
3. no live wait names a member, and
4. no member's access has an earlier conflicting access by another tree
   that is still remembered (:meth:`World.after`).

(4) is the deletion rule of serialization-graph testing (Bernstein,
Hadzilacos & Goodman): every later access follows all of the tree's, so
such a tree can gain no incoming edge and lies on no future cycle.  (1)-(3)
keep what a later check or blame can still read: an ended action's locks
may be released after its end, and a refused waiter is blamed on the
holders its wait named.  (1)-(3) are one per-tree count of *pins* and (4)
a per-tree set of predecessors; a tree is re-checked when either clears.
A dropped tree takes its 2PC rounds that ended or decided abort along; a
round still open then goes at its ``twopc.end``.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.obs.bus import ObsEvent

#: the data modes, totally ordered; every other mode is an operation group
DATA_MODES = frozenset(("read", "exclusive_read", "write"))
_STRENGTH = ("read", "exclusive_read", "write").index

#: what an ``action.failure`` record holds when its event leaves a label out
_FAILURE = dict.fromkeys(
    ("cause", "op", "error", "detail", "dst", "object", "colour"), "")

#: 2PC kind -> the :class:`Txn` map it marks and the label keying the mark
_MARKS = {"twopc.commit": ("applies", "node"),
          "twopc.abort": ("aborts", "node"),
          "twopc.decision_query": ("queried", "decision")}


def split(value: Any) -> Tuple[str, ...]:
    """A comma-joined label's non-empty parts."""
    return tuple(part for part in str(value or "").split(",") if part)


def lock_labels(labels: Dict[str, Any]) -> Tuple[str, str, str, str, str]:
    """A lock event's node, owner, object, mode and colour."""
    get = labels.get
    return (str(get("node", "")), str(get("owner", "")),
            str(get("object", "")), str(get("mode", "")),
            str(get("colour", "")))


class _Tree:
    """One top-level action and its descendants, and what still keeps them:
    ``pins`` counts running members, members' hold records and live waits
    naming a member; ``preds`` are the trees (or unknown owners, kept for
    good) with an access before a conflicting one of a member, ``succs``
    the trees this one is a predecessor of."""

    __slots__ = ("members", "pins", "preds", "succs")

    def __init__(self):
        self.members: Optional[List[str]] = []   # None once forgotten
        self.pins = 0
        self.preds: set = set()
        self.succs: set = set()


class Action:
    """One action as its events describe it."""

    __slots__ = ("uid", "parent", "tree", "colours", "name", "node", "begin",
                 "outcome", "end_seq", "failures", "refusals", "txns")

    def __init__(self, uid: str, parent: str = "", tree=None):
        self.uid = uid
        self.parent = parent
        self.tree = tree
        self.colours: Tuple[str, ...] = ()
        self.name = self.node = ""
        self.begin = 0.0
        self.outcome: Optional[str] = None
        self.end_seq: Optional[int] = None      # None while it runs
        #: ``action.failure`` labels and ``lock.refused`` records, in order
        self.failures: List[Dict[str, Any]] = []
        self.refusals: List[Dict[str, Any]] = []
        self.txns: List[str] = []


class Hold:
    """One lock record: mode, colour, the tick it was first granted (kept
    across joins and inheritance) and, once released, ``until``."""

    __slots__ = ("mode", "colour", "since", "until", "tree")

    def __init__(self, mode: str, colour: str, since: float, tree):
        self.mode = mode
        self.colour = colour
        self.since = self.until = since
        self.tree = tree     # the tree it pins, if its owner is known


class Wait(NamedTuple):
    """An owner's latest queued lock request and who it queued behind."""

    node: str
    object: str
    blockers: List[str]
    trees: List[_Tree]   # the remembered trees of ``blockers``


class Vote(NamedTuple):
    """One ``twopc.vote``: who voted what, why, and its seq."""

    node: str
    vote: str
    reason: str
    seq: int


class Txn:
    """One 2PC round as the bus saw it; the ``Dict[str, int]`` fields map
    a decision or node to the seq of the first event that said so."""

    __slots__ = ("txn", "colour", "action", "participants", "votes",
                 "decisions", "cause", "queried", "applies", "aborts",
                 "end_seq", "downgrades")

    def __init__(self, txn: str):
        self.txn = txn
        self.colour = self.action = self.cause = ""
        self.participants: Tuple[str, ...] = ()
        self.votes: List[Vote] = []
        self.decisions: Dict[str, int] = {}
        self.queried: Dict[str, int] = {}
        self.applies: Dict[str, int] = {}
        self.aborts: Dict[str, int] = {}
        self.end_seq: Optional[int] = None
        self.downgrades: List[Dict[str, Any]] = []

    @property
    def decision(self) -> str:
        """The first decision announced, "" before any."""
        return next(iter(self.decisions), "")


class World:
    """Lock, action and 2PC state folded from the event stream
    (thread-safe: users run under :attr:`mutex`)."""

    def __init__(self, on_release: Optional[Callable[..., None]] = None):
        self.mutex = threading.Lock()
        self.actions: Dict[str, Action] = {}
        #: (node, object) -> owner -> colour, or (colour, group) -> Hold
        self.holds: Dict[Tuple[str, str], Dict[str, Dict[Any, Hold]]] = {}
        #: owner -> (node, object) -> the record it last released there
        self.released: Dict[str, Dict[Tuple[str, str], Hold]] = {}
        self.waits: Dict[str, Wait] = {}
        self.txns: Dict[str, Txn] = {}
        #: node -> the tick it first crashed or restarted
        self.faulted: Dict[str, float] = {}
        #: ``on_release(node, object, hold, tick)`` as a record goes
        self.on_release = on_release
        #: users' ``forget(members)``, called before a tree is dropped
        self._forgetters: List[Callable[[set], None]] = []
        #: kind -> ((user, handler), ...) and the kind's fold; its keys are
        #: the kinds read
        self._routes: Dict[str, Tuple[Tuple, Optional[Callable]]] = {}
        self._bus = None
        self._pending: List[_Tree] = []

    # -- users and intake -----------------------------------------------------

    def attach(self, user: Any) -> None:
        """Call ``user``'s ``HANDLERS`` (kind -> ``handler(user, event)``,
        or None for a kind it only needs folded) from the next event on,
        and ``user.forget(members)`` before a tree is dropped; sets
        ``user.world``.  A bus subscription widens to the new kinds."""
        user.world = self
        if hasattr(user, "forget"):
            self._forgetters.append(user.forget)
        for kind, handler in user.HANDLERS.items():
            handlers, fold = self._routes.get(kind,
                                              ((), self._FOLDS.get(kind)))
            if handler is not None:
                handlers += ((user, handler),)
            self._routes[kind] = (handlers, fold)
        if self._bus is not None:
            self.subscribe(self._bus)

    def subscribe(self, bus) -> None:
        """Read ``bus`` for the kinds the users read (re-subscribing)."""
        if self._bus is not None:
            self._bus.unsubscribe(self.consume)
        self._bus = bus
        bus.subscribe(self.consume, kinds=self._routes)

    def consume(self, event: ObsEvent) -> None:
        """Show ``event`` to the users that read it, then fold it."""
        route = self._routes.get(event.kind)
        if route is None:
            return
        handlers, fold = route
        with self.mutex:
            for user, handler in handlers:
                handler(user, event)
            if fold is not None:
                fold(self, event)
            while self._pending:
                tree = self._pending.pop()
                if tree.members is not None and not (tree.pins or tree.preds):
                    self._forget(tree)

    # -- queries --------------------------------------------------------------

    def action(self, uid: str, parent: str = "") -> Action:
        """``uid``'s record, begun here if never seen — in ``parent``'s
        tree when that is known, else as a tree of its own."""
        info = self.actions.get(uid)
        if info is None:
            above = self.actions.get(parent)
            tree = above.tree if above is not None else _Tree()
            info = self.actions[uid] = Action(uid, parent, tree)
            tree.members.append(uid)
            tree.pins += 1
        return info

    def ancestors(self, uid: str):
        """The known records above ``uid``, nearest first.  The walk ends
        at a top-level action, at a parent never seen (or forgotten) or at
        a loop: the last record's ``parent`` tells which."""
        seen = {uid}
        info = self.actions.get(uid)
        while info is not None and info.parent and info.parent not in seen:
            seen.add(info.parent)
            info = self.actions.get(info.parent)
            if info is not None:
                yield info

    def txn(self, event: ObsEvent) -> Optional[Txn]:
        """The round ``event`` names (begun if new); None if it names none."""
        txn = str(event.labels.get("txn", ""))
        if not txn:
            return None
        state = self.txns.get(txn)
        if state is None:
            state = self.txns[txn] = Txn(txn)
        return state

    def node_faulted(self, node: str, before: float) -> bool:
        """Did ``node`` crash or restart at or before ``before``?"""
        return self.faulted.get(node, before + 1) <= before

    def after(self, later: str, earlier: str) -> None:
        """``later`` made an access that conflicts with an earlier one by
        ``earlier``: ``later``'s tree is kept while ``earlier``'s is (an
        owner with no record is never forgotten, so it pins for good)."""
        info, first = self.actions.get(later), self.actions.get(earlier)
        if info is None or first is not None and first.tree is info.tree:
            return
        info.tree.preds.add(first.tree if first is not None else earlier)
        if first is not None:
            first.tree.succs.add(info.tree)

    def _unpin(self, tree: Optional[_Tree]) -> None:
        if tree is not None:
            tree.pins -= 1
            if not tree.pins:
                self._pending.append(tree)

    # -- actions ----------------------------------------------------------------

    def _on_begin(self, event: ObsEvent) -> None:
        uid = str(event.labels.get("action", ""))
        if not uid:
            return
        info = self.action(uid, str(event.labels.get("parent", "") or ""))
        info.colours = split(event.labels.get("colours", ""))
        info.name = str(event.labels.get("name", ""))
        info.node = str(event.labels.get("node", ""))
        info.begin = event.tick

    def _on_end(self, event: ObsEvent) -> None:
        uid = str(event.labels.get("action", ""))
        self._unwait(uid)
        info = self.actions.get(uid)
        if info is None:
            return
        if info.end_seq is None:
            self._unpin(info.tree)
        info.outcome = str(event.labels.get("outcome", ""))
        info.end_seq = event.seq

    def _on_failure(self, event: ObsEvent) -> None:
        self.action(str(event.labels.get("action", ""))).failures.append(
            {**_FAILURE, **event.labels, "tick": event.tick})

    # -- locks ------------------------------------------------------------------

    def _hold(self, node: str, obj: str, owner: str, mode: str, colour: str,
              since: float) -> None:
        records = self.holds.setdefault((node, obj), {}).setdefault(owner, {})
        data = mode in DATA_MODES
        key = colour if data else (colour, mode)
        held = records.get(key)
        if held is None:
            info = self.actions.get(owner)
            records[key] = Hold(mode, colour, since,
                                info.tree if info is not None else None)
            if info is not None:
                info.tree.pins += 1
            return
        if data:
            held.mode = max(held.mode, mode, key=_STRENGTH)
        held.since = min(held.since, since)

    def _unhold(self, node: str, obj: str, owner: str, mode: str,
                colour: str) -> Optional[Hold]:
        holders = self.holds.get((node, obj))
        records = holders.get(owner) if holders is not None else None
        if not records:
            return None
        key = colour if mode in DATA_MODES else (colour, mode)
        if key not in records:   # an event naming no mode: its colour's
            key = next((k for k, held in records.items()
                        if held.colour == colour), None)
            if key is None:
                return None
        held = records.pop(key)
        if not records:
            del holders[owner]
            if not holders:
                del self.holds[(node, obj)]
        self._unpin(held.tree)
        return held

    def _on_granted(self, event: ObsEvent) -> None:
        node, owner, obj, mode, colour = lock_labels(event.labels)
        if not owner or not obj:
            return
        self._hold(node, obj, owner, mode, colour, event.tick)
        self._unwait(owner, obj)

    def _on_released(self, event: ObsEvent) -> None:
        node, owner, obj, mode, colour = lock_labels(event.labels)
        held = self._unhold(node, obj, owner, mode, colour)
        if held is None:
            return
        held.until = event.tick
        self.released.setdefault(owner, {})[(node, obj)] = held
        if self.on_release is not None:
            self.on_release(node, obj, held, event.tick)

    def _on_inherited(self, event: ObsEvent) -> None:
        node, owner, obj, mode, colour = lock_labels(event.labels)
        held = self._unhold(node, obj, owner, mode, colour)
        self._hold(node, obj, str(event.labels.get("to", "")), mode, colour,
                   held.since if held is not None else event.tick)

    def _on_blocked(self, event: ObsEvent) -> None:
        node, owner, obj, _mode, _colour = lock_labels(event.labels)
        self._unwait(owner)
        blockers = list(split(event.labels.get("blockers", "")))
        trees = [self.actions[name].tree for name in blockers
                 if name in self.actions]
        for tree in trees:
            tree.pins += 1
        self.waits[owner] = Wait(node, obj, blockers, trees)

    def _on_refused(self, event: ObsEvent) -> None:
        _node, owner, obj, _mode, _colour = lock_labels(event.labels)
        self._unwait(owner, obj)

    def _unwait(self, owner: str, obj: Optional[str] = None) -> None:
        """``owner`` waits no more (for ``obj``, when one is named)."""
        wait = self.waits.get(owner)
        if wait is None or obj is not None and wait.object != obj:
            return
        del self.waits[owner]
        for tree in wait.trees:
            self._unpin(tree)

    def _on_fault(self, event: ObsEvent) -> None:
        """A crash, or a restart — which implies one even when the crash
        itself went unannounced: the node's volatile lock tables died."""
        node = str(event.labels.get("node", ""))
        self.faulted.setdefault(node, event.tick)
        for key in [key for key in self.holds if key[0] == node]:
            for records in self.holds.pop(key).values():
                for held in records.values():
                    self._unpin(held.tree)

    # -- 2PC rounds -------------------------------------------------------------

    def _on_twopc_begin(self, event: ObsEvent) -> None:
        state = self.txn(event)
        if state is None:
            return
        state.colour = str(event.labels.get("colour", ""))
        state.action = str(event.labels.get("action", ""))
        state.participants = split(event.labels.get("participants", ""))
        if state.action:
            self.action(state.action).txns.append(state.txn)

    def _on_twopc_vote(self, event: ObsEvent) -> None:
        state = self.txn(event)
        if state is not None:
            state.votes.append(Vote(str(event.labels.get("node", "")),
                                    str(event.labels.get("vote", "")),
                                    str(event.labels.get("reason", "")),
                                    event.seq))

    def _on_twopc_decision(self, event: ObsEvent) -> None:
        state = self.txn(event)
        if state is None:
            return
        decision = str(event.labels.get("decision", ""))
        if decision == next(iter(state.decisions), decision) \
                and not state.cause:
            state.cause = str(event.labels.get("cause", ""))
        state.decisions.setdefault(decision, event.seq)

    def _on_twopc_downgrade(self, event: ObsEvent) -> None:
        state = self.txn(event)
        if state is not None:
            state.downgrades.append(dict(event.labels, tick=event.tick))

    def _on_twopc_mark(self, event: ObsEvent) -> None:
        """The first seq at which a node applied or aborted the round, or
        the coordinator answered a decision query."""
        state = self.txn(event)
        if state is not None:
            field, label = _MARKS[event.kind]
            getattr(state, field).setdefault(
                str(event.labels.get(label, "")), event.seq)

    def _on_twopc_end(self, event: ObsEvent) -> None:
        state = self.txn(event)
        if state is None:
            return
        state.end_seq = event.seq
        if state.action and state.action not in self.actions:
            del self.txns[state.txn]   # its tree was forgotten first

    # -- forgetting -------------------------------------------------------------

    def _forget(self, tree: _Tree) -> None:
        """Drop a finished tree: what each user keeps for its members, then
        its actions, their last releases and their settled rounds."""
        members = set(tree.members)
        for forget in self._forgetters:
            forget(members)
        for uid in tree.members:
            self.released.pop(uid, None)
            for txn in self.actions.pop(uid).txns:
                state = self.txns.get(txn)
                if state is not None and (state.end_seq is not None
                                          or "abort" in state.decisions):
                    del self.txns[txn]
        tree.members = None
        for succ in tree.succs:
            succ.preds.discard(tree)
            if not succ.preds:
                self._pending.append(succ)

    #: kind -> fold; a kind no user reads is never folded
    _FOLDS = {
        "action.begin": _on_begin,
        "action.end": _on_end,
        "action.failure": _on_failure,
        "lock.granted": _on_granted,
        "lock.released": _on_released,
        "lock.inherited": _on_inherited,
        "lock.blocked": _on_blocked,
        "lock.refused": _on_refused,
        "node.crash": _on_fault,
        "node.restart": _on_fault,
        "twopc.begin": _on_twopc_begin,
        "twopc.vote": _on_twopc_vote,
        "twopc.decision": _on_twopc_decision,
        "twopc.downgrade": _on_twopc_downgrade,
        "twopc.commit": _on_twopc_mark,
        "twopc.abort": _on_twopc_mark,
        "twopc.decision_query": _on_twopc_mark,
        "twopc.end": _on_twopc_end,
    }

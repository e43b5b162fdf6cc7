"""The postmortem engine: causal abort attribution over retained events.

A :class:`PostmortemEngine` is a user of a :class:`~repro.obs.world.World`
of its own (like the :class:`~repro.obs.audit.auditor.InvariantAuditor`
of an offline audit): the World folds the action lifecycle, lock traffic,
2PC rounds and fault-injection events, and when an action ends the engine
issues a :class:`~repro.obs.postmortem.records.Postmortem` — committed
actions get a plain record, aborted ones get a *reason* from the taxonomy
plus a resolved blocker chain for lock-induced deaths.

Bound to a hub, the engine is a *view* over the history layer's events:
it subscribes to nothing, and :meth:`PostmortemEngine.catch_up` feeds it
the events past the last ``seq`` it read.  Its queries and its dump
catch it up, and the hub catches it up before a rotation.  Offline (``python
-m repro.obs why``) a fresh engine replays a dump's events; both read the
same stream through the same code, so they issue the same records.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from repro.obs.bus import ObsEvent
from repro.obs.history import History
from repro.obs.postmortem import attribution
from repro.obs.postmortem.records import BlockerLink, Postmortem
from repro.obs.world import Action, World, split

#: postmortem records kept (the newest)
MAX_RECORDS = 10_000

#: what a ``lock.refused`` record holds when its event leaves a label out
_REFUSAL = dict.fromkeys(
    ("owner", "object", "node", "mode", "colour", "reason", "error"), "")


class PostmortemEngine:
    """World user building per-action postmortems with causal blame."""

    section = "postmortem"
    #: the events it reads are the ones the history layer keeps
    requires = (History.section,)

    #: chain resolution bounds: transitive depth and total links
    MAX_CHAIN_DEPTH = 4
    MAX_CHAIN_LINKS = 8

    def __init__(self):
        self.records: Deque[Postmortem] = deque(maxlen=MAX_RECORDS)
        #: action-level totals per reason (one per aborted action)
        self.reason_counts: Dict[str, int] = {}
        #: events read
        self.seen = 0
        self._history: Optional[History] = None
        #: the ``seq`` of the last retained event read
        self._cursor = 0
        World().attach(self)

    # -- wiring ---------------------------------------------------------------

    def bind(self, hub, cluster=None) -> None:
        """Read ``hub``'s history layer, which must be bound first."""
        self._history = hub.layers[History.section]

    def catch_up(self) -> None:
        """Read the history's events published since the last catch-up."""
        if self._history is None:
            return
        events = list(self._history.events)
        start = len(events)
        while start and events[start - 1].seq > self._cursor:
            start -= 1
        for event in events[start:]:
            self.consume(event)
        if start < len(events):
            self._cursor = events[-1].seq

    @classmethod
    def replay(cls, events: Iterable[ObsEvent]) -> "PostmortemEngine":
        """Run a saved event stream through a fresh engine (offline mode)."""
        engine = cls()
        for event in events:
            engine.consume(event)
        return engine

    # -- intake ---------------------------------------------------------------

    def consume(self, event: ObsEvent) -> None:
        """Fold one event into this engine's World, issuing a record when
        an action ends."""
        self.world.consume(event)

    def _saw(self, event: ObsEvent) -> None:
        self.seen += 1

    def _on_action_end(self, event: ObsEvent) -> None:
        self.seen += 1
        action = str(event.label("action", ""))
        info = self.world.actions.get(action) or Action(action)
        colours = split(event.label("colours", "")) or info.colours
        outcome = str(event.label("outcome", ""))
        reason, detail, blockers = (attribution.attribute(info, self.world)
                                    if outcome == "aborted" else ("", "", ()))
        record = Postmortem(
            action=action,
            name=str(event.label("name", "")) or info.name,
            node=str(event.label("node", "")) or info.node,
            colours=colours, outcome=outcome, reason=reason, detail=detail,
            begin=info.begin, end=event.tick, blockers=blockers,
            txns=tuple(info.txns),
        )
        if outcome == "aborted":
            self.reason_counts[reason] = self.reason_counts.get(reason, 0) + 1
        self.records.append(record)

    # -- blocker chains --------------------------------------------------------

    def _on_lock_refused(self, event: ObsEvent) -> None:
        self.seen += 1
        refusal = {**_REFUSAL, **event.labels, "tick": event.tick}
        owner = str(refusal["owner"])
        refusal["blockers"] = self._blocker_chain(
            owner, refusal["node"], refusal["object"], event.tick)
        self.world.action(owner).refusals.append(refusal)

    def _on_action_failure(self, event: ObsEvent) -> None:
        """A lock-taking call that outlived its client's budget was still
        queued (:func:`attribution.outwaited`): the wait the World has for
        it is on record as a refusal, with its blocker chain — the grant
        or cancellation that ends the wait comes later."""
        wait = self.world.waits.get(str(event.label("action", "")))
        if wait is not None and attribution.outwaited(event.labels):
            return self._on_lock_refused(ObsEvent(event.tick, event.kind, {
                "owner": event.label("action"), "object": wait.object,
                "node": wait.node, "mode": wait.mode, "error": "RpcTimeout",
                "colour": event.label("colour", "")}))
        self.seen += 1

    def _blocker_chain(self, victim: str, node: str, obj: str,
                       tick: float) -> Tuple[BlockerLink, ...]:
        """Who stands (or stood) between ``victim`` and its lock, resolved
        against the current lock world; transitively chases holders that
        are themselves blocked, bounded in depth and length."""
        links: List[BlockerLink] = []
        seen = {victim}
        queue: List[Tuple[str, str, str, int]] = [(victim, node, obj, 0)]
        while queue and len(links) < self.MAX_CHAIN_LINKS:
            who, at_node, at_obj, depth = queue.pop(0)
            if depth > self.MAX_CHAIN_DEPTH:
                continue
            for link in self._links_for(who, at_node, at_obj, tick, depth):
                if link.holder in seen:
                    continue
                seen.add(link.holder)
                links.append(link)
                if len(links) >= self.MAX_CHAIN_LINKS:
                    break
                waiting = self.world.waits.get(link.holder)
                if waiting is not None:
                    queue.append((link.holder, waiting.node,
                                  waiting.object, depth + 1))
        return tuple(links)

    def _links_for(self, who: str, node: str, obj: str, tick: float,
                   depth: int) -> List[BlockerLink]:
        found: List[BlockerLink] = []
        for holder, records in sorted(
                self.world.holds.get((node, obj), {}).items()):
            if holder == who:
                continue
            for held in records.values():
                found.append(BlockerLink(
                    holder=holder, object=obj, node=node,
                    mode=held.mode, colour=held.colour,
                    status="holds", since=held.since,
                    held_for=tick - held.since, depth=depth,
                ))
        if found:
            return found
        # nobody holds it *now*: blame whoever the victim was queued
        # behind when the wait began — released holders first, then
        # earlier waiters in the FIFO queue
        wait = self.world.waits.get(who)
        names = (wait.blockers
                 if wait is not None and wait.object == obj else [])
        for holder in names:
            if holder == who:
                continue
            last = self.world.released.get(holder, {}).get((node, obj))
            if last is not None:
                found.append(BlockerLink(
                    holder=holder, object=obj, node=node,
                    mode=last.mode, colour=last.colour,
                    status="released", since=last.since,
                    held_for=last.until - last.since, depth=depth,
                ))
            else:
                found.append(BlockerLink(holder=holder, object=obj,
                                         node=node, status="queued-ahead",
                                         depth=depth))
        return found

    # -- queries / export -------------------------------------------------------

    def record_for(self, query: str) -> Optional[Postmortem]:
        """Find a record by action uid, txn id, or action name."""
        self.catch_up()
        for record in reversed(self.records):
            if (record.action == query or query in record.txns
                    or record.name == query):
                return record
        return None

    def aborted(self) -> List[Postmortem]:
        self.catch_up()
        return [r for r in self.records if r.outcome == "aborted"]

    def dump(self) -> Dict[str, Any]:
        """JSON-able section for ``Observability.save``."""
        self.catch_up()
        with self.world.mutex:
            return {
                "records": [r.to_dict() for r in self.records],
                "reasons": dict(sorted(self.reason_counts.items())),
                "seen": self.seen,
            }

    def rotate(self, start: float, end: float) -> Dict[str, Any]:
        """One segment's section: the records issued since the last one,
        handed out and dropped; ``reasons`` and ``seen`` stay cumulative."""
        section = self.dump()
        with self.world.mutex:
            self.records.clear()
        return section

    #: kind -> handler; the keys are the kinds the World reads for the
    #: engine, every one counted in ``seen``
    HANDLERS = {
        **dict.fromkeys((
            "action.begin", "lock.granted",
            "lock.released", "lock.inherited", "lock.blocked",
            "twopc.begin", "twopc.vote", "twopc.decision",
            "twopc.downgrade", "node.crash", "node.restart"), _saw),
        "action.end": _on_action_end,
        "action.failure": _on_action_failure,
        "lock.refused": _on_lock_refused,
    }

"""The postmortem engine: causal abort attribution over the obs event bus.

A :class:`PostmortemEngine` is a user of a :class:`~repro.obs.world.World`
(like the :class:`~repro.obs.audit.auditor.InvariantAuditor`): the World
folds the action lifecycle, lock traffic, 2PC rounds and fault-injection
events, and when an action ends the engine issues a
:class:`~repro.obs.postmortem.records.Postmortem` — committed actions get a
plain record, aborted ones get a *reason* from the taxonomy plus a
resolved blocker chain for lock-induced deaths.

Attribution happens online, at the ``action.end`` event, against the lock
and transaction state the World has reconstructed so far; the same code
runs offline over a saved dump (``python -m repro.obs why``) because both
paths consume the identical event stream.  Aborted actions additionally:

- feed ``abort_reason_total{reason=,colour=}`` — incremented once per
  colour of the action, so the totals cross-check exactly against the
  hub's per-colour ``actions_aborted_total`` counters;
- freeze the hub's flight-recorder ring, when one is bound (bounded, like the
  auditor's finding snapshots) so the black box around a death survives.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from repro.obs.bus import ObsEvent
from repro.obs.history import History
from repro.obs.perf.recorder import FlightRecorder
from repro.obs.postmortem import attribution
from repro.obs.postmortem.records import BlockerLink, Postmortem
from repro.obs.world import Action, World, split

#: at most this many abort ring snapshots are frozen per run
MAX_ABORT_SNAPSHOTS = 4

#: postmortem records kept (the newest)
MAX_RECORDS = 10_000

#: what a ``lock.refused`` record holds when its event leaves a label out
_REFUSAL = dict.fromkeys(
    ("owner", "object", "node", "mode", "colour", "reason", "error"), "")


class PostmortemEngine:
    """World user building per-action postmortems with causal blame."""

    section = "postmortem"
    #: ``abort_reason_total`` is cross-checked against the hub's abort
    #: counters colour by colour
    requires = (History.section,)

    #: chain resolution bounds: transitive depth and total links
    MAX_CHAIN_DEPTH = 4
    MAX_CHAIN_LINKS = 8

    def __init__(self, metrics=None):
        self.metrics = metrics
        self.records: Deque[Postmortem] = deque(maxlen=MAX_RECORDS)
        self.abort_snapshots: List[Dict[str, Any]] = []
        #: action-level totals per reason (one per aborted action)
        self.reason_counts: Dict[str, int] = {}
        #: events read
        self.seen = 0
        self._hub = None
        World().attach(self)

    # -- wiring ---------------------------------------------------------------

    def bind(self, hub, cluster=None) -> None:
        """Read ``hub``'s World (widening what it subscribes to); count
        into its registry."""
        self._hub = hub
        if self.metrics is None:
            self.metrics = hub.metrics
        hub.world.attach(self)

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
            if self.metrics is not None:
                # one increment per colour: exact parity with the hub's
                # actions_aborted_total{colour=} accounting
                for colour in colours:
                    self.metrics.counter("abort_reason_total",
                                         reason=reason, colour=colour).inc()
            self._freeze_ring(record)
        self.records.append(record)

    def _freeze_ring(self, record: Postmortem) -> None:
        # looked up per abort, so the recorder may be bound after us
        flight = (self._hub.layers.get(FlightRecorder.section)
                  if self._hub is not None else None)
        if flight is None or len(self.abort_snapshots) >= MAX_ABORT_SNAPSHOTS:
            return
        self.abort_snapshots.append({
            "action": record.action,
            "reason": record.reason,
            "detail": record.detail,
            "tick": record.end,
            "events": flight.ring_events(),
        })

    # -- blocker chains --------------------------------------------------------

    def _on_lock_refused(self, event: ObsEvent) -> None:
        self.seen += 1
        refusal = {**_REFUSAL, **event.labels, "tick": event.tick}
        owner = str(refusal["owner"])
        refusal["blockers"] = self._blocker_chain(
            owner, refusal["node"], refusal["object"], event.tick)
        self.world.action(owner).refusals.append(refusal)

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
        for record in reversed(self.records):
            if (record.action == query or query in record.txns
                    or record.name == query):
                return record
        return None

    def aborted(self) -> List[Postmortem]:
        return [r for r in self.records if r.outcome == "aborted"]

    def dump(self) -> Dict[str, Any]:
        """JSON-able section for ``Observability.save``."""
        with self.world.mutex:
            return {
                "records": [r.to_dict() for r in self.records],
                "reasons": dict(sorted(self.reason_counts.items())),
                "abort_snapshots": list(self.abort_snapshots),
                "seen": self.seen,
            }

    def rotate(self, start: float, end: float) -> Dict[str, Any]:
        """One segment's section: the records and ring snapshots issued
        since the last one, handed out and dropped (re-arming the snapshot
        cap); ``reasons`` and ``seen`` stay cumulative."""
        section = self.dump()
        with self.world.mutex:
            self.records.clear()
            self.abort_snapshots.clear()
        return section

    #: kind -> handler; the keys are the kinds the World reads for the
    #: engine, every one counted in ``seen``
    HANDLERS = {
        **dict.fromkeys((
            "action.begin", "action.failure", "lock.granted",
            "lock.released", "lock.inherited", "lock.blocked",
            "twopc.begin", "twopc.vote", "twopc.decision",
            "twopc.downgrade", "node.crash", "node.restart"), _saw),
        "action.end": _on_action_end,
        "lock.refused": _on_lock_refused,
    }

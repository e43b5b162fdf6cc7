"""The postmortem engine: causal abort attribution over the obs event bus.

A :class:`PostmortemEngine` is a pure bus subscriber (same contract as the
:class:`~repro.obs.audit.auditor.InvariantAuditor`): it watches the action
lifecycle, lock traffic, 2PC rounds and fault-injection events, and when an
action ends it issues a :class:`~repro.obs.postmortem.records.Postmortem`
— committed actions get a plain record, aborted ones get a *reason* from
the taxonomy plus a resolved blocker chain for lock-induced deaths.

Attribution happens online, at the ``action.end`` event, against the lock
and transaction state the engine has reconstructed so far; the same code
runs offline over a saved dump (``python -m repro.obs why``) because both
paths consume the identical event stream.  Aborted actions additionally:

- feed ``abort_reason_total{reason=,colour=}`` — incremented once per
  colour of the action, so the totals cross-check exactly against the
  hub's per-colour ``actions_aborted_total`` counters;
- freeze the hub's flight-recorder ring, when one is bound (bounded, like the
  auditor's finding snapshots) so the black box around a death survives.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from repro.obs.bus import ObsEvent
from repro.obs.history import History
from repro.obs.perf.recorder import FlightRecorder
from repro.obs.postmortem import attribution
from repro.obs.postmortem.records import BlockerLink, Postmortem

#: at most this many abort ring snapshots are frozen per run
MAX_ABORT_SNAPSHOTS = 4

#: postmortem records kept when the engine's deque overflows
DEFAULT_MAX_RECORDS = 10_000


@dataclass
class _ActionInfo:
    """Everything observed about one action while it is alive."""

    uid: str
    name: str = ""
    node: str = ""
    parent: str = ""
    colours: Tuple[str, ...] = field(default_factory=tuple)
    begin: float = 0.0
    #: ``action.failure`` events, in arrival order
    failures: List[Dict[str, Any]] = field(default_factory=list)
    #: ``lock.refused`` events with their resolved blocker chains
    refusals: List[Dict[str, Any]] = field(default_factory=list)
    txns: List[str] = field(default_factory=list)


@dataclass
class _TxnInfo:
    """One 2PC round as seen from the bus."""

    txn: str
    action: str = ""
    colour: str = ""
    participants: Tuple[str, ...] = field(default_factory=tuple)
    begin: float = 0.0
    votes: List[Dict[str, Any]] = field(default_factory=list)
    decision: str = ""
    cause: str = ""
    downgrades: List[Dict[str, Any]] = field(default_factory=list)


def _split(value: str) -> Tuple[str, ...]:
    return tuple(part for part in str(value or "").split(",") if part)


class PostmortemEngine:
    """Bus subscriber building per-action postmortems with causal blame."""

    section = "postmortem"
    #: ``abort_reason_total`` is cross-checked against the hub's abort
    #: counters colour by colour
    requires = (History.section,)

    _HANDLERS = {
        "action.begin": "_on_action_begin",
        "action.end": "_on_action_end",
        "action.failure": "_on_action_failure",
        "lock.granted": "_on_lock_granted",
        "lock.released": "_on_lock_released",
        "lock.inherited": "_on_lock_inherited",
        "lock.blocked": "_on_lock_blocked",
        "lock.refused": "_on_lock_refused",
        "twopc.begin": "_on_twopc_begin",
        "twopc.vote": "_on_twopc_vote",
        "twopc.decision": "_on_twopc_decision",
        "twopc.downgrade": "_on_twopc_downgrade",
        "node.crash": "_on_node_crash",
        "node.restart": "_on_node_restart",
    }

    #: chain resolution bounds: transitive depth and total links
    MAX_CHAIN_DEPTH = 4
    MAX_CHAIN_LINKS = 8

    def __init__(self, metrics=None,
                 max_records: int = DEFAULT_MAX_RECORDS):
        if max_records < 1:
            raise ValueError(f"max_records must be >= 1, got {max_records}")
        self._mutex = threading.Lock()
        self.metrics = metrics
        self.records: Deque[Postmortem] = deque(maxlen=max_records)
        self.abort_snapshots: List[Dict[str, Any]] = []
        #: action-level totals per reason (one per aborted action)
        self.reason_counts: Dict[str, int] = {}
        self.seen = 0
        self._hub = None
        # -- reconstructed world state --------------------------------------
        self._actions: Dict[str, _ActionInfo] = {}
        self._txns: Dict[str, _TxnInfo] = {}
        #: (node, object) -> owner -> held records [{mode, colour, since}]
        self._holds: Dict[Tuple[str, str], Dict[str, List[Dict[str, Any]]]] = {}
        #: (node, object, owner) -> most recently released record
        self._last_hold: Dict[Tuple[str, str, str], Dict[str, Any]] = {}
        #: owner -> its current lock wait (latest ``lock.blocked``)
        self._blocked: Dict[str, Dict[str, Any]] = {}
        #: node -> ticks at which it crashed / restarted
        self._crashed: Dict[str, List[float]] = {}
        self._restarted: Dict[str, List[float]] = {}

    # -- wiring ---------------------------------------------------------------

    def bind(self, hub, cluster=None) -> None:
        """Subscribe to ``hub``'s event bus; count into its registry."""
        self._hub = hub
        if self.metrics is None:
            self.metrics = hub.metrics
        hub.bus.subscribe(self.consume, kinds=self._HANDLERS)

    @classmethod
    def replay(cls, events: Iterable[ObsEvent],
               max_records: int = DEFAULT_MAX_RECORDS) -> "PostmortemEngine":
        """Run a saved event stream through a fresh engine (offline mode)."""
        engine = cls(max_records=max_records)
        for event in events:
            engine.consume(event)
        return engine

    # -- intake ---------------------------------------------------------------

    def consume(self, event: ObsEvent) -> None:
        handler = self._HANDLERS.get(event.kind)
        if handler is None:
            return
        with self._mutex:
            self.seen += 1
            getattr(self, handler)(event)

    # -- action lifecycle ------------------------------------------------------

    def _info(self, action: str) -> _ActionInfo:
        info = self._actions.get(action)
        if info is None:
            info = self._actions[action] = _ActionInfo(uid=action)
        return info

    def _on_action_begin(self, event: ObsEvent) -> None:
        action = str(event.label("action", ""))
        info = self._info(action)
        info.name = str(event.label("name", ""))
        info.node = str(event.label("node", ""))
        info.parent = str(event.label("parent", ""))
        info.colours = _split(event.label("colours", ""))
        info.begin = event.tick

    def _on_action_failure(self, event: ObsEvent) -> None:
        info = self._info(str(event.label("action", "")))
        info.failures.append({
            "tick": event.tick,
            "cause": str(event.label("cause", "")),
            "op": str(event.label("op", "")),
            "error": str(event.label("error", "")),
            "detail": str(event.label("detail", "")),
            "dst": str(event.label("dst", "")),
            "object": str(event.label("object", "")),
            "colour": str(event.label("colour", "")),
        })

    def _on_action_end(self, event: ObsEvent) -> None:
        action = str(event.label("action", ""))
        info = self._actions.pop(action, None) or _ActionInfo(uid=action)
        colours = _split(event.label("colours", "")) or info.colours
        outcome = str(event.label("outcome", ""))
        record = Postmortem(
            action=action,
            name=str(event.label("name", "")) or info.name,
            node=str(event.label("node", "")) or info.node,
            colours=colours,
            outcome=outcome,
            begin=info.begin,
            end=event.tick,
            txns=tuple(info.txns),
        )
        if outcome == "aborted":
            reason, detail, blockers = attribution.attribute(info, self)
            record = Postmortem(
                action=record.action, name=record.name, node=record.node,
                colours=record.colours, outcome=record.outcome,
                reason=reason, detail=detail,
                begin=record.begin, end=record.end,
                blockers=blockers, txns=record.txns,
            )
            self.reason_counts[reason] = self.reason_counts.get(reason, 0) + 1
            if self.metrics is not None:
                # one increment per colour: exact parity with the hub's
                # actions_aborted_total{colour=} accounting
                for colour in colours:
                    self.metrics.counter("abort_reason_total",
                                         reason=reason, colour=colour).inc()
            self._freeze_ring(record)
        self._blocked.pop(action, None)
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

    # -- lock state ------------------------------------------------------------

    def _on_lock_granted(self, event: ObsEvent) -> None:
        node = str(event.label("node", ""))
        owner = str(event.label("owner", ""))
        obj = str(event.label("object", ""))
        self._holds.setdefault((node, obj), {}).setdefault(owner, []).append({
            "mode": str(event.label("mode", "")),
            "colour": str(event.label("colour", "")),
            "since": event.tick,
        })
        blocked = self._blocked.get(owner)
        if blocked is not None and blocked["object"] == obj:
            del self._blocked[owner]

    def _drop_hold(self, node: str, obj: str, owner: str, mode: str,
                   colour: str, tick: float) -> Optional[Dict[str, Any]]:
        holders = self._holds.get((node, obj))
        if holders is None:
            return None
        records = holders.get(owner)
        if not records:
            return None
        match = next((r for r in records
                      if r["mode"] == mode and r["colour"] == colour),
                     records[0])
        records.remove(match)
        if not records:
            del holders[owner]
        if not holders:
            del self._holds[(node, obj)]
        return match

    def _on_lock_released(self, event: ObsEvent) -> None:
        node = str(event.label("node", ""))
        owner = str(event.label("owner", ""))
        obj = str(event.label("object", ""))
        match = self._drop_hold(node, obj, owner,
                                str(event.label("mode", "")),
                                str(event.label("colour", "")), event.tick)
        if match is not None:
            self._last_hold[(node, obj, owner)] = {
                "mode": match["mode"], "colour": match["colour"],
                "since": match["since"], "until": event.tick,
                "reason": str(event.label("reason", "")),
            }

    def _on_lock_inherited(self, event: ObsEvent) -> None:
        node = str(event.label("node", ""))
        owner = str(event.label("owner", ""))
        heir = str(event.label("to", ""))
        obj = str(event.label("object", ""))
        mode = str(event.label("mode", ""))
        colour = str(event.label("colour", ""))
        match = self._drop_hold(node, obj, owner, mode, colour, event.tick)
        since = match["since"] if match is not None else event.tick
        self._holds.setdefault((node, obj), {}).setdefault(heir, []).append({
            "mode": mode, "colour": colour, "since": since,
        })

    def _on_lock_blocked(self, event: ObsEvent) -> None:
        owner = str(event.label("owner", ""))
        self._blocked[owner] = {
            "object": str(event.label("object", "")),
            "node": str(event.label("node", "")),
            "mode": str(event.label("mode", "")),
            "colour": str(event.label("colour", "")),
            "blockers": list(_split(event.label("blockers", ""))),
            "since": event.tick,
        }

    def _on_lock_refused(self, event: ObsEvent) -> None:
        owner = str(event.label("owner", ""))
        obj = str(event.label("object", ""))
        node = str(event.label("node", ""))
        chain = self._blocker_chain(owner, node, obj, event.tick)
        blocked = self._blocked.get(owner)
        if blocked is not None and blocked["object"] == obj:
            del self._blocked[owner]
        self._info(owner).refusals.append({
            "tick": event.tick,
            "object": obj,
            "node": node,
            "mode": str(event.label("mode", "")),
            "colour": str(event.label("colour", "")),
            "reason": str(event.label("reason", "")),
            "error": str(event.label("error", "")),
            "blockers": chain,
        })

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
                waiting = self._blocked.get(link.holder)
                if waiting is not None:
                    queue.append((link.holder, waiting["node"],
                                  waiting["object"], depth + 1))
        return tuple(links)

    def _links_for(self, who: str, node: str, obj: str, tick: float,
                   depth: int) -> List[BlockerLink]:
        found: List[BlockerLink] = []
        for holder, records in sorted(
                self._holds.get((node, obj), {}).items()):
            if holder == who:
                continue
            for record in records:
                found.append(BlockerLink(
                    holder=holder, object=obj, node=node,
                    mode=record["mode"], colour=record["colour"],
                    status="holds", since=record["since"],
                    held_for=tick - record["since"], depth=depth,
                ))
        if found:
            return found
        # nobody holds it *now*: blame whoever the victim was queued
        # behind when the wait began — released holders first, then
        # earlier waiters in the FIFO queue
        blocked = self._blocked.get(who)
        names = (blocked["blockers"]
                 if blocked is not None and blocked["object"] == obj else [])
        for holder in names:
            if holder == who:
                continue
            last = self._last_hold.get((node, obj, holder))
            if last is not None:
                found.append(BlockerLink(
                    holder=holder, object=obj, node=node,
                    mode=last["mode"], colour=last["colour"],
                    status="released", since=last["since"],
                    held_for=last["until"] - last["since"], depth=depth,
                ))
            else:
                found.append(BlockerLink(holder=holder, object=obj,
                                         node=node, status="queued-ahead",
                                         depth=depth))
        return found

    # -- 2PC rounds ------------------------------------------------------------

    def _txn(self, txn: str) -> _TxnInfo:
        info = self._txns.get(txn)
        if info is None:
            info = self._txns[txn] = _TxnInfo(txn=txn)
        return info

    def _on_twopc_begin(self, event: ObsEvent) -> None:
        txn = str(event.label("txn", ""))
        info = self._txn(txn)
        info.action = str(event.label("action", ""))
        info.colour = str(event.label("colour", ""))
        info.participants = _split(event.label("participants", ""))
        info.begin = event.tick
        if info.action:
            self._info(info.action).txns.append(txn)

    def _on_twopc_vote(self, event: ObsEvent) -> None:
        self._txn(str(event.label("txn", ""))).votes.append({
            "node": str(event.label("node", "")),
            "vote": str(event.label("vote", "")),
            "reason": str(event.label("reason", "")),
            "tick": event.tick,
        })

    def _on_twopc_decision(self, event: ObsEvent) -> None:
        info = self._txn(str(event.label("txn", "")))
        decision = str(event.label("decision", ""))
        if not info.decision or info.decision == decision:
            info.decision = decision
            if not info.cause:
                info.cause = str(event.label("cause", ""))

    def _on_twopc_downgrade(self, event: ObsEvent) -> None:
        self._txn(str(event.label("txn", ""))).downgrades.append({
            "reason": str(event.label("reason", "")),
            "resolution": str(event.label("resolution", "")),
            "dst": str(event.label("dst", "")),
            "tick": event.tick,
        })

    # -- fault injection --------------------------------------------------------

    def _on_node_crash(self, event: ObsEvent) -> None:
        node = str(event.label("node", ""))
        self._crashed.setdefault(node, []).append(event.tick)
        self._wipe_node(node)

    def _on_node_restart(self, event: ObsEvent) -> None:
        node = str(event.label("node", ""))
        self._restarted.setdefault(node, []).append(event.tick)
        # a restart implies volatile lock state was lost even when the
        # crash itself went unannounced (direct node.crash() in tests)
        self._wipe_node(node)

    def _wipe_node(self, node: str) -> None:
        for key in [k for k in self._holds if k[0] == node]:
            del self._holds[key]

    def node_faulted(self, node: str, before: float) -> bool:
        """Did ``node`` crash or restart at or before ``before``?

        The signal that separates :data:`~repro.obs.postmortem.records
        .CRASH_PARTITION` (process death) from
        :data:`~repro.obs.postmortem.records.INJECTED_FAULT` (message
        loss with everyone alive).
        """
        for tick in self._crashed.get(node, ()):
            if tick <= before:
                return True
        for tick in self._restarted.get(node, ()):
            if tick <= before:
                return True
        return False

    def txn_info(self, txn: str) -> Optional[_TxnInfo]:
        return self._txns.get(txn)

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
        with self._mutex:
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
        with self._mutex:
            self.records.clear()
            self.abort_snapshots.clear()
        return section

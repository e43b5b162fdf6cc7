"""The online invariant auditor: runtime verification on the obs event bus.

Subscribed to an :class:`~repro.obs.bus.EventBus`, the auditor consumes the
structured events the runtimes already publish (lock grants/releases/
inheritances, action begin/end, commit routing, 2PC votes and decisions)
and incrementally checks the paper's per-colour claims (§5.1):

- **serializability** — a per-colour serialization graph over effective
  accesses; a cycle among committed serialization units is a violation;
- **lock discipline** — two-phase behaviour per owner, plus the §5.2
  modified locking rules re-checked at every grant (exclusive grants must
  only coexist with inclusive-ancestor holders; WRITE records on one
  object must share a colour);
- **commit routing** — §5.3: each colour goes to the closest same-coloured
  live ancestor, or becomes permanent only when the action is outermost
  for that colour;
- **termination** — a per-txn 2PC state machine: no commit decision after
  a rollback vote, no shadow promotion without a decision in evidence,
  presumed abort never contradicting a logged commit, no in-doubt
  commit-voter once the coordinator has logged its end, fast-path
  (piggybacked / one-phase) decisions only with every other participant's
  affirmative vote in evidence, no read-only voter driven through phase
  two, and commute-path (local, no-prepare) decisions only over
  commuting-flagged grants with no exclusive data record in the colour;
- **failure atomicity** — an aborted colour leaves no stable effects; a
  colour can only be made permanent by an action that possesses it.

Violations become :class:`~repro.obs.audit.findings.Finding`s (also
counted in the metrics registry as ``audit_findings_total{kind=...}``);
the per-node lock state is reset on ``node.restart`` because a crash
legitimately wipes a server's volatile lock tables.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.obs.audit import findings as F
from repro.obs.audit.findings import Finding
from repro.obs.audit.graph import SerializationGraph, conflicts
from repro.obs.bus import ObsEvent

#: modes that participate in the data-conflict graph and the §5.2 rule
#: checks; semantic operation-group modes are strings outside this set and
#: are subject to the two-phase check plus the commutativity-based grant
#: check (``_check_semantic_grant``) when the grant event carries the
#: type's compatibility relation.
DATA_MODES = frozenset(("read", "exclusive_read", "write"))
EXCLUSIVE_MODES = frozenset(("exclusive_read", "write"))

#: sentinel for "not enough information to judge" (unknown action uid)
_UNKNOWN = object()


@dataclass
class _ActionInfo:
    uid: str
    parent: str = ""
    colours: Set[str] = field(default_factory=set)
    name: str = ""
    begin_seq: int = 0
    outcome: Optional[str] = None
    end_seq: Optional[int] = None


@dataclass
class _TxnState:
    txn: str
    colour: str = ""
    action: str = ""
    coordinator: str = ""
    participants: Set[str] = field(default_factory=set)
    votes: Dict[str, List[Tuple[str, int]]] = field(default_factory=dict)
    decisions: Dict[str, int] = field(default_factory=dict)
    queried: Dict[str, int] = field(default_factory=dict)
    applies: Dict[str, int] = field(default_factory=dict)
    aborts: Dict[str, int] = field(default_factory=dict)
    end_seq: Optional[int] = None


class InvariantAuditor:
    """Incremental checker over the obs event stream (thread-safe)."""

    def __init__(self, metrics=None, max_accesses: int = 4096):
        self.metrics = metrics
        self._mutex = threading.Lock()
        self.findings: List[Finding] = []
        self._actions: Dict[str, _ActionInfo] = {}
        #: (node, object) -> owner -> colour -> mode (mirror of lock tables)
        self._held: Dict[Tuple[str, str], Dict[str, Dict[str, str]]] = {}
        #: (node, owner) -> seq of first release/inheritance (shrink phase)
        self._closed: Dict[Tuple[str, str], int] = {}
        #: (node, owner, colour, group) flagged ``commuting`` at grant time
        #: — the evidence a commute-path local decision must rest on
        self._commuting: Set[Tuple[str, str, str, str]] = set()
        #: (object, colour) -> [(seq, owner, mode)] grant history
        self._accesses: Dict[Tuple[str, str], List[Tuple[int, str, str]]] = {}
        self._max_accesses = max_accesses
        self._txns: Dict[str, _TxnState] = {}
        #: dedup keys of findings already counted in metrics (report-time
        #: findings recompute on every call and must not double-count)
        self._counted: Set[Tuple] = set()
        #: callbacks fired on every new online finding (e.g. the flight
        #: recorder freezing its ring); exceptions are swallowed so a
        #: listener can never break the audit itself.
        self._finding_listeners: List[Any] = []

    # -- intake ---------------------------------------------------------------

    def consume(self, event: ObsEvent) -> None:
        """Check one event; findings cite it by ``event.seq``, its number
        in the stream (the bus's, or the one a replayed dump recorded)."""
        handler = self.HANDLERS.get(event.kind)
        if handler is not None:
            with self._mutex:
                handler(self, event.seq, event)

    # -- findings -------------------------------------------------------------

    def _finding(self, kind: str, message: str, *, tick: float = 0.0,
                 colour: str = "", node: str = "", txn: str = "",
                 action: str = "", object: str = "",
                 event_seqs: Tuple[int, ...] = ()) -> None:
        found = Finding(kind=kind, message=message, tick=tick, colour=colour,
                        node=node, txn=txn, action=action, object=object,
                        event_seqs=event_seqs)
        self.findings.append(found)
        self._count(kind, (kind, message, event_seqs))
        for listener in self._finding_listeners:
            try:
                listener(found)
            except Exception:
                pass

    def add_finding_listener(self, listener) -> None:
        """Call ``listener(finding)`` whenever an online check fires."""
        self._finding_listeners.append(listener)

    def _count(self, kind: str, key: Tuple) -> None:
        if key in self._counted:
            return
        self._counted.add(key)
        if self.metrics is not None:
            self.metrics.counter("audit_findings_total", kind=kind).inc()

    def report(self) -> List[Finding]:
        """All findings so far, plus the (recomputed) graph-level checks."""
        with self._mutex:
            return list(self.findings) + self._check_serialization()

    # -- actions --------------------------------------------------------------

    def _on_action_begin(self, seq: int, event: ObsEvent) -> None:
        uid = str(event.label("action", ""))
        if not uid:
            return
        colours = str(event.label("colours", ""))
        self._actions[uid] = _ActionInfo(
            uid=uid,
            parent=str(event.label("parent", "") or ""),
            colours={c for c in colours.split(",") if c},
            name=str(event.label("name", "")),
            begin_seq=seq,
        )

    def _on_action_end(self, seq: int, event: ObsEvent) -> None:
        uid = str(event.label("action", ""))
        info = self._actions.get(uid)
        if info is None:
            return
        info.outcome = str(event.label("outcome", ""))
        info.end_seq = seq

    def _is_ancestor(self, maybe_ancestor: str, owner: str):
        """True/False via the begin-event parent chain; None when unknown."""
        if maybe_ancestor == owner:
            return True
        info = self._actions.get(owner)
        if info is None:
            return None
        seen = set()
        while info.parent:
            if info.parent == maybe_ancestor:
                return True
            if info.parent in seen:      # defensive: corrupt parent chain
                return None
            seen.add(info.parent)
            info = self._actions.get(info.parent)
            if info is None:
                return None
        return False

    # -- lock discipline ------------------------------------------------------

    def _on_lock_granted(self, seq: int, event: ObsEvent) -> None:
        node = str(event.label("node", ""))
        owner = str(event.label("owner", ""))
        obj = str(event.label("object", ""))
        mode = str(event.label("mode", ""))
        colour = str(event.label("colour", ""))
        if not owner or not obj:
            return
        if (node, owner) in self._closed:
            self._finding(
                F.TWO_PHASE,
                f"lock on {obj} granted to {owner} after it began releasing",
                tick=event.tick, colour=colour, node=node, action=owner,
                object=obj,
                event_seqs=(self._closed[(node, owner)], seq),
            )
        held = self._held.setdefault((node, obj), {})
        if mode in DATA_MODES:
            self._check_grant_rules(seq, event, node, owner, obj, mode,
                                    colour, held)
            history = self._accesses.setdefault((obj, colour), [])
            if len(history) < self._max_accesses:
                history.append((seq, owner, mode))
        elif event.label("semantic") is not None:
            self._check_semantic_grant(seq, event, node, owner, obj, mode,
                                       colour, held)
            if event.label("commuting") is not None:
                self._commuting.add((node, owner, colour, mode))
        own = held.setdefault(owner, {})
        if mode in DATA_MODES and own.get(colour) in DATA_MODES:
            own[colour] = max((own[colour], mode),
                              key=("read", "exclusive_read", "write").index)
        else:
            own[colour] = mode

    def _check_grant_rules(self, seq: int, event: ObsEvent, node: str,
                           owner: str, obj: str, mode: str, colour: str,
                           held: Dict[str, Dict[str, str]]) -> None:
        """Re-check the §5.2 modified locking rules against our lock view."""
        for other, records in held.items():
            if other == owner:
                continue
            other_excl = any(m in EXCLUSIVE_MODES for m in records.values())
            if mode in EXCLUSIVE_MODES or other_excl:
                # exclusive on either side: the holder must be an inclusive
                # ancestor of the requester (unknown ancestry -> no verdict)
                if self._is_ancestor(other, owner) is False:
                    self._finding(
                        F.LOCK_RULE,
                        f"{mode} lock on {obj} granted to {owner} while "
                        f"non-ancestor {other} holds it",
                        tick=event.tick, colour=colour, node=node,
                        action=owner, object=obj, event_seqs=(seq,),
                    )
        if mode == "write":
            for other, records in held.items():
                for held_colour, held_mode in records.items():
                    if held_mode == "write" and held_colour != colour:
                        self._finding(
                            F.LOCK_RULE,
                            f"write lock on {obj} granted in colour "
                            f"{colour} while a {held_colour}-coloured "
                            f"write record exists (holder {other})",
                            tick=event.tick, colour=colour, node=node,
                            action=owner, object=obj, event_seqs=(seq,),
                        )

    def _check_semantic_grant(self, seq: int, event: ObsEvent, node: str,
                              owner: str, obj: str, group: str, colour: str,
                              held: Dict[str, Dict[str, str]]) -> None:
        """Re-check a type-specific (operation-group) grant.

        The grant event carries the set of groups its own group commutes
        with (``compatible``, emitted by the lock registry from the type's
        SemanticSpec); compatibility is symmetric, so every other holder's
        group must appear in that set unless the holder is an inclusive
        ancestor of the requester.  Retained records (``__retain__``)
        commute with nothing, so a non-ancestor retainer always conflicts.
        """
        compatible = {
            g for g in str(event.label("compatible", "")).split(",") if g
        }
        for other, records in held.items():
            if other == owner:
                continue
            incompatible = sorted(
                g for g in records.values()
                if g not in DATA_MODES and g not in compatible
            )
            if not incompatible:
                continue
            if self._is_ancestor(other, owner) is False:
                self._finding(
                    F.SEMANTIC_LOCK_RULE,
                    f"group {group} on {obj} granted to {owner} while "
                    f"non-ancestor {other} holds incompatible group "
                    f"{incompatible[0]}",
                    tick=event.tick, colour=colour, node=node,
                    action=owner, object=obj, event_seqs=(seq,),
                )

    def _on_lock_released(self, seq: int, event: ObsEvent) -> None:
        node = str(event.label("node", ""))
        owner = str(event.label("owner", ""))
        obj = str(event.label("object", ""))
        colour = str(event.label("colour", ""))
        self._closed.setdefault((node, owner), seq)
        held = self._held.get((node, obj))
        if held is not None:
            records = held.get(owner)
            if records is not None:
                records.pop(colour, None)
                if not records:
                    held.pop(owner, None)
            if not held:
                self._held.pop((node, obj), None)

    def _on_lock_inherited(self, seq: int, event: ObsEvent) -> None:
        node = str(event.label("node", ""))
        owner = str(event.label("owner", ""))
        dest = str(event.label("to", ""))
        obj = str(event.label("object", ""))
        mode = str(event.label("mode", ""))
        colour = str(event.label("colour", ""))
        self._closed.setdefault((node, owner), seq)
        if (node, dest) in self._closed:
            self._finding(
                F.TWO_PHASE,
                f"lock on {obj} inherited by {dest}, which had already "
                f"begun releasing",
                tick=event.tick, colour=colour, node=node, action=dest,
                object=obj, event_seqs=(self._closed[(node, dest)], seq),
            )
        held = self._held.get((node, obj))
        if held is None:
            return
        records = held.get(owner)
        if records is not None:
            records.pop(colour, None)
            if not records:
                held.pop(owner, None)
        dest_records = held.setdefault(dest, {})
        existing = dest_records.get(colour)
        if existing in DATA_MODES and mode in DATA_MODES:
            order = ("read", "exclusive_read", "write").index
            dest_records[colour] = max((existing, mode), key=order)
        else:
            dest_records[colour] = mode

    def _on_node_restart(self, seq: int, event: ObsEvent) -> None:
        node = str(event.label("node", ""))
        for key in [k for k in self._held if k[0] == node]:
            del self._held[key]
        for key in [k for k in self._closed if k[0] == node]:
            del self._closed[key]
        self._commuting = {k for k in self._commuting if k[0] != node}

    # -- commit routing / permanence ------------------------------------------

    def _expected_route(self, action_uid: str, colour: str):
        """Closest not-yet-terminated ancestor possessing the colour.

        Returns its uid, "" for "permanent" (outermost for the colour), or
        the _UNKNOWN sentinel when the parent chain is not fully known.
        Terminated ancestors are skipped: a committed ancestor's
        responsibilities have moved further up, an aborted one is gone —
        this matches the runtime's live-ancestor reparenting.
        """
        info = self._actions.get(action_uid)
        if info is None:
            return _UNKNOWN
        seen = set()
        while info.parent:
            if info.parent in seen:
                return _UNKNOWN
            seen.add(info.parent)
            parent = self._actions.get(info.parent)
            if parent is None:
                return _UNKNOWN
            if colour in parent.colours and parent.end_seq is None:
                return parent.uid
            info = parent
        return ""

    def _on_commit_route(self, seq: int, event: ObsEvent) -> None:
        action = str(event.label("action", ""))
        colour = str(event.label("colour", ""))
        dest = str(event.label("dest", ""))
        expected = self._expected_route(action, colour)
        if expected is _UNKNOWN or dest == expected:
            return
        if expected == "":
            message = (f"colour {colour} of {action} routed to {dest} "
                       f"although the action is outermost for it")
        elif dest == "":
            message = (f"colour {colour} of {action} made permanent "
                       f"although live ancestor {expected} possesses it")
        else:
            message = (f"colour {colour} of {action} routed to {dest}; "
                       f"closest live same-coloured ancestor is {expected}")
        self._finding(F.COMMIT_ROUTE, message, tick=event.tick,
                      colour=colour, node=str(event.label("node", "")),
                      action=action, event_seqs=(seq,))

    def _on_colour_permanent(self, seq: int, event: ObsEvent) -> None:
        action = str(event.label("action", ""))
        colour = str(event.label("colour", ""))
        node = str(event.label("node", ""))
        info = self._actions.get(action)
        if info is None:
            return
        if colour and colour not in info.colours:
            self._finding(
                F.ATOMICITY,
                f"{action} persisted colour {colour} it does not possess",
                tick=event.tick, colour=colour, node=node, action=action,
                event_seqs=(seq,),
            )
        elif info.outcome == "aborted":
            self._finding(
                F.ATOMICITY,
                f"aborted action {action} persisted colour {colour}",
                tick=event.tick, colour=colour, node=node, action=action,
                event_seqs=(info.end_seq or seq, seq),
            )

    # -- 2PC state machine -----------------------------------------------------

    def _txn(self, event: ObsEvent) -> Optional[_TxnState]:
        txn = str(event.label("txn", ""))
        if not txn:
            return None
        state = self._txns.get(txn)
        if state is None:
            state = self._txns[txn] = _TxnState(txn=txn)
        return state

    def _on_twopc_begin(self, seq: int, event: ObsEvent) -> None:
        state = self._txn(event)
        if state is None:
            return
        state.colour = str(event.label("colour", ""))
        state.action = str(event.label("action", ""))
        state.coordinator = str(event.label("node", ""))
        participants = str(event.label("participants", ""))
        state.participants = {p for p in participants.split(",") if p}

    def _on_twopc_vote(self, seq: int, event: ObsEvent) -> None:
        state = self._txn(event)
        if state is None:
            return
        node = str(event.label("node", ""))
        vote = str(event.label("vote", ""))
        state.votes.setdefault(node, []).append((vote, seq))

    def _on_twopc_decision(self, seq: int, event: ObsEvent) -> None:
        state = self._txn(event)
        if state is None:
            return
        decision = str(event.label("decision", ""))
        tick = event.tick
        opposite = "abort" if decision == "commit" else "commit"
        if opposite in state.decisions:
            self._finding(
                F.DECISION_CONFLICT,
                f"{state.txn} decided {decision} after deciding {opposite}",
                tick=tick, txn=state.txn, colour=state.colour,
                event_seqs=(state.decisions[opposite], seq),
            )
        if decision == "commit":
            # read-only and commute are affirmative: the voter consented
            # and left the protocol, it does not gate the decision
            negative = [
                (node, vote, vseq)
                for node, votes in state.votes.items()
                for vote, vseq in votes
                if vote not in ("commit", "read-only", "commute")
            ]
            if negative:
                node, vote, vseq = negative[0]
                self._finding(
                    F.COMMIT_AFTER_ROLLBACK,
                    f"{state.txn} decided commit although {node} voted "
                    f"{vote}",
                    tick=tick, txn=state.txn, node=node,
                    colour=state.colour, event_seqs=(vseq, seq),
                )
        fast_path = str(event.label("fast_path", ""))
        if decision == "commit" and fast_path == "commute":
            # commute decisions are taken locally and concurrently at every
            # participant — there is no vote quorum to check; their
            # soundness rests on the commutativity of the colour instead
            self._check_commute_decision(seq, event, state)
        elif decision == "commit" and fast_path and state.participants:
            # a fast-path decision is taken *at a participant*: it is only
            # sound if the coordinator delegated it after collecting every
            # other participant's affirmative vote
            decider = str(event.label("node", ""))
            missing = sorted(
                p for p in state.participants - {decider}
                if not any(vote in ("commit", "read-only", "commute")
                           for vote, _ in state.votes.get(p, []))
            )
            if missing:
                self._finding(
                    F.FAST_PATH_NO_QUORUM,
                    f"{state.txn} decided commit via fast path "
                    f"{fast_path} at {decider} without an affirmative "
                    f"vote from {missing[0]}",
                    tick=tick, txn=state.txn, node=decider,
                    colour=state.colour, event_seqs=(seq,),
                )
        state.decisions.setdefault(decision, seq)

    def _check_commute_decision(self, seq: int, event: ObsEvent,
                                state: _TxnState) -> None:
        """A local (no-prepare) commute decision is only sound when the
        colour is fully commuting at the decider: every operation group it
        applied was granted with the registry's ``commuting`` flag, and
        the action holds no exclusive data-mode record in the deciding
        colour there (a plain WRITE means classic 2PC was required)."""
        node = str(event.label("node", ""))
        owner = str(event.label("action", ""))
        colour = str(event.label("colour", ""))
        if not node or not owner:
            return
        for group in str(event.label("groups", "")).split(","):
            if group and (node, owner, colour, group) not in self._commuting:
                self._finding(
                    F.COMMUTE_UNSOUND,
                    f"{state.txn} decided commit locally (commute path) at "
                    f"{node} applying group {group}, which was never "
                    f"granted to {owner} with the commuting flag",
                    tick=event.tick, txn=state.txn, node=node,
                    colour=colour, action=owner, event_seqs=(seq,),
                )
        for (held_node, obj), holders in sorted(self._held.items()):
            if held_node != node:
                continue
            mode = holders.get(owner, {}).get(colour)
            if mode in EXCLUSIVE_MODES:
                self._finding(
                    F.COMMUTE_UNSOUND,
                    f"{state.txn} decided commit locally (commute path) at "
                    f"{node} although {owner} holds exclusive {mode} on "
                    f"{obj} in the deciding colour",
                    tick=event.tick, txn=state.txn, node=node,
                    colour=colour, action=owner, object=obj,
                    event_seqs=(seq,),
                )

    def _on_twopc_commit(self, seq: int, event: ObsEvent) -> None:
        state = self._txn(event)
        if state is None:
            return
        node = str(event.label("node", ""))
        evidence = "commit" in state.decisions or "commit" in state.queried
        if not evidence:
            self._finding(
                F.COMMIT_WITHOUT_DECISION,
                f"{node} promoted shadows for {state.txn} with no commit "
                f"decision in evidence",
                tick=event.tick, txn=state.txn, node=node,
                event_seqs=(seq,),
            )
        if "abort" in state.decisions:
            self._finding(
                F.ATOMICITY,
                f"{node} promoted shadows for {state.txn}, which decided "
                f"abort — aborted colour left stable effects",
                tick=event.tick, txn=state.txn, node=node,
                colour=state.colour,
                event_seqs=(state.decisions["abort"], seq),
            )
        read_only = [
            vseq for vote, vseq in state.votes.get(node, [])
            if vote == "read-only"
        ]
        if read_only:
            self._finding(
                F.READ_ONLY_IN_PHASE_TWO,
                f"{node} voted read-only for {state.txn} (releasing its "
                f"locks at vote time) yet went through phase two",
                tick=event.tick, txn=state.txn, node=node,
                colour=state.colour, event_seqs=(read_only[0], seq),
            )
        state.applies.setdefault(node, seq)

    def _on_twopc_abort(self, seq: int, event: ObsEvent) -> None:
        state = self._txn(event)
        if state is None:
            return
        state.aborts.setdefault(str(event.label("node", "")), seq)

    def _on_twopc_decision_query(self, seq: int, event: ObsEvent) -> None:
        state = self._txn(event)
        if state is None:
            return
        decision = str(event.label("decision", ""))
        if (decision == "abort" and "commit" in state.decisions
                and state.end_seq is None):
            self._finding(
                F.PRESUMED_ABORT,
                f"coordinator answered abort for {state.txn}, which it "
                f"decided to commit and has not finished",
                tick=event.tick, txn=state.txn,
                node=str(event.label("node", "")),
                event_seqs=(state.decisions["commit"], seq),
            )
        if decision == "commit" and "abort" in state.decisions:
            self._finding(
                F.DECISION_CONFLICT,
                f"coordinator answered commit for {state.txn}, which "
                f"decided abort",
                tick=event.tick, txn=state.txn,
                event_seqs=(state.decisions["abort"], seq),
            )
        state.queried.setdefault(decision, seq)

    def _on_twopc_end(self, seq: int, event: ObsEvent) -> None:
        state = self._txn(event)
        if state is None:
            return
        state.end_seq = seq
        for node, votes in sorted(state.votes.items()):
            voted_commit = any(vote == "commit" for vote, _ in votes)
            if not voted_commit:
                continue
            if node not in state.applies and node not in state.aborts:
                self._finding(
                    F.IN_DOUBT_AFTER_END,
                    f"coordinator ended {state.txn} but commit-voter "
                    f"{node} never saw the decision",
                    tick=event.tick, txn=state.txn, node=node,
                    event_seqs=(seq,),
                )

    # -- serialization graph (report-time) -------------------------------------

    def _chain_committed(self, owner: str, colour: str) -> bool:
        """Did the whole inheritance chain of this access decide commit?

        Walks owner -> closest same-coloured static ancestor -> ... -> the
        serialization unit; an aborted link anywhere means the access left
        no effects in this colour (failure atomicity) and must not
        contribute conflict edges.  Open or unknown links count as
        committed — a pessimistic choice that keeps live cycles visible.
        """
        current = owner
        seen = set()
        while True:
            if current in seen:
                return True
            seen.add(current)
            info = self._actions.get(current)
            if info is None:
                return True
            if info.outcome == "aborted":
                return False
            nxt = ""
            walk = info
            while walk.parent:
                parent = self._actions.get(walk.parent)
                if parent is None:
                    return True
                if colour in parent.colours:
                    nxt = parent.uid
                    break
                walk = parent
            if not nxt:
                return True
            current = nxt

    def _unit_of(self, owner: str, colour: str) -> str:
        """The serialization unit: topmost static ancestor with the colour."""
        unit = owner
        info = self._actions.get(owner)
        seen = set()
        while info is not None and info.parent and info.parent not in seen:
            seen.add(info.parent)
            info = self._actions.get(info.parent)
            if info is None:
                break
            if colour in info.colours:
                unit = info.uid
        return unit

    def _check_serialization(self) -> List[Finding]:
        graphs: Dict[str, SerializationGraph] = {}
        for (obj, colour), history in sorted(self._accesses.items()):
            effective = [
                (seq, owner, mode) for seq, owner, mode in history
                if self._chain_committed(owner, colour)
            ]
            if len(effective) < 2:
                continue
            # pairwise edges are quadratic; bound the per-object window so
            # a pathological history cannot stall report()
            effective = effective[:512]
            graph = graphs.get(colour)
            if graph is None:
                graph = graphs[colour] = SerializationGraph(colour)
            units = {
                owner: self._unit_of(owner, colour)
                for _, owner, _ in effective
            }
            for i, (seq_a, owner_a, mode_a) in enumerate(effective):
                for seq_b, owner_b, mode_b in effective[i + 1:]:
                    if owner_a == owner_b:
                        continue
                    if not conflicts(mode_a, mode_b):
                        continue
                    graph.add_edge(units[owner_a], units[owner_b],
                                   (seq_a, seq_b))
        found: List[Finding] = []
        for colour, graph in sorted(graphs.items()):
            cycle = graph.find_cycle()
            if cycle is None:
                continue
            seqs = graph.cycle_witnesses(cycle)
            finding = Finding(
                kind=F.SERIALIZATION_CYCLE,
                message=(f"serialization units of colour {colour} form a "
                         f"cycle: {' -> '.join(cycle)}"),
                colour=colour, event_seqs=seqs,
            )
            found.append(finding)
            self._count(F.SERIALIZATION_CYCLE,
                        (F.SERIALIZATION_CYCLE, colour, tuple(cycle)))
        return found

    #: kind -> handler; the keys are the kinds the hub subscribes it with
    HANDLERS = {
        "action.begin": _on_action_begin,
        "action.end": _on_action_end,
        "lock.granted": _on_lock_granted,
        "lock.released": _on_lock_released,
        "lock.inherited": _on_lock_inherited,
        "node.restart": _on_node_restart,
        "commit.route": _on_commit_route,
        "colour.permanent": _on_colour_permanent,
        "twopc.begin": _on_twopc_begin,
        "twopc.vote": _on_twopc_vote,
        "twopc.decision": _on_twopc_decision,
        "twopc.commit": _on_twopc_commit,
        "twopc.abort": _on_twopc_abort,
        "twopc.decision_query": _on_twopc_decision_query,
        "twopc.end": _on_twopc_end,
    }

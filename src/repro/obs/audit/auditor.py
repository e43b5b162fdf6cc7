"""The online invariant auditor: runtime verification on the obs event bus.

The auditor is a user of a :class:`~repro.obs.world.World`, which folds the
structured events the runtimes already publish (lock grants/releases/
inheritances, action begin/end, 2PC votes and decisions) into the lock,
action and 2PC state it reads.  Shown each event before the World folds
it, the auditor incrementally checks the paper's per-colour claims (§5.1):

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
  affirmative vote in evidence, and commute-path (local, no-prepare)
  decisions only over commuting-flagged grants with no exclusive data
  record in the colour;
- **failure atomicity** — an aborted colour leaves no stable effects; a
  colour can only be made permanent by an action that possesses it.

Violations become :class:`~repro.obs.audit.findings.Finding`s (also
counted in the metrics registry as ``audit_findings_total{kind=...}``).
What only the auditor keeps — shrink-phase marks, commuting grants and the
access history — is dropped with a tree the World forgets
(:meth:`InvariantAuditor.forget`), the marks also on ``node.restart``
because a crash legitimately wipes a server's volatile lock tables.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.obs.audit import findings as F
from repro.obs.audit.findings import Finding
from repro.obs.audit.graph import SerializationGraph, conflicts
from repro.obs.bus import ObsEvent
from repro.obs.world import DATA_MODES, World, lock_labels, split

#: data modes that exclude non-ancestor holders (the §5.2 rule checks)
EXCLUSIVE_MODES = frozenset(("exclusive_read", "write"))

#: votes by which a participant consents to commit
AFFIRMATIVE = ("commit", "commute")

#: grants kept per (object, colour) for the serialization graph; later
#: ones add no edges
MAX_ACCESSES = 4096

#: sentinel for "not enough information to judge" (unknown action uid)
_UNKNOWN = object()


class InvariantAuditor:
    """Incremental checker over the obs event stream (thread-safe)."""

    def __init__(self, metrics=None, world: Optional[World] = None):
        self.metrics = metrics
        self.findings: List[Finding] = []
        #: owner -> node -> seq of its first release/inheritance there
        #: (shrink phase)
        self._closed: Dict[str, Dict[str, int]] = {}
        #: owner -> (node, colour, group) flagged ``commuting`` at grant
        #: time — the evidence a commute-path local decision must rest on
        self._commuting: Dict[str, Set[Tuple[str, str, str]]] = {}
        #: (object, colour) -> [(seq, owner, mode)] grant history
        self._accesses: Dict[Tuple[str, str], List[Tuple[int, str, str]]] = {}
        #: owner -> the ``_accesses`` keys it has entries under
        self._touched: Dict[str, Set[Tuple[str, str]]] = {}
        #: dedup keys of findings already counted in metrics (report-time
        #: findings recompute on every call and must not double-count)
        self._counted: Set[Tuple] = set()
        #: callbacks fired on every new online finding (e.g. the flight
        #: recorder freezing its ring); exceptions are swallowed so a
        #: listener can never break the audit itself.
        self._finding_listeners: List[Any] = []
        (world if world is not None else World()).attach(self)

    # -- intake ---------------------------------------------------------------

    def consume(self, event: ObsEvent) -> None:
        """Check one event and fold it into the World; findings cite it by
        ``event.seq``, its number in the stream (the bus's, or the one a
        replayed dump recorded)."""
        self.world.consume(event)

    # -- findings -------------------------------------------------------------

    def _finding(self, kind: str, message: str, event: Optional[ObsEvent],
                 *earlier: int, **where: str) -> None:
        """Record a finding witnessed by ``event`` — its tick, and its seq
        after the ``earlier`` ones — or, with none, by ``earlier`` alone;
        ``where`` names its colour, node, txn, action and object."""
        self._record(Finding(
            kind=kind, message=message, **where,
            tick=event.tick if event is not None else 0.0,
            event_seqs=earlier if event is None else (*earlier, event.seq)))

    def _record(self, found: Finding) -> None:
        self.findings.append(found)
        self._count(found.kind, (found.kind, found.message, found.event_seqs))
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
        with self.world.mutex:
            cycles = self._cycles(self._accesses)
            for found in cycles:
                self._count(found.kind,
                            (found.kind, found.colour, found.message))
            return self.findings + cycles

    def forget(self, members: Set[str]) -> None:
        """The World drops a finished tree: record any serialization cycle
        among its own units, then let go of what is kept for ``members``."""
        keys: Set[Tuple[str, str]] = set()
        for uid in members:
            self._closed.pop(uid, None)
            self._commuting.pop(uid, None)
            keys.update(self._touched.pop(uid, ()))
        if len(members) > 1:   # one owner's accesses draw no edge
            own = {key: [access for access in self._accesses[key]
                         if access[1] in members] for key in keys}
            for found in self._cycles(own):
                self._record(found)
        for key in keys:
            rest = [access for access in self._accesses[key]
                    if access[1] not in members]
            if rest:
                self._accesses[key] = rest
            else:
                del self._accesses[key]

    # -- ancestry ---------------------------------------------------------------

    def _is_ancestor(self, maybe_ancestor: str, owner: str):
        """True/False via the begin-event parent chain; None when unknown."""
        if maybe_ancestor == owner:
            return True
        last = self.world.actions.get(owner)
        if last is None:
            return None
        for last in self.world.ancestors(owner):
            if last.uid == maybe_ancestor:
                return True
        if last.parent == maybe_ancestor:
            return True
        return None if last.parent else False

    # -- lock discipline ------------------------------------------------------

    def _on_lock_granted(self, event: ObsEvent) -> None:
        """Two-phase locking, then the grant re-checked against the other
        holders the World knows.  A data mode: the §5.2 modified rules —
        exclusive on either side needs an inclusive-ancestor holder
        (unknown ancestry gives no verdict), and WRITE records on one
        object share a colour.  An operation group: the grant carries the
        groups it commutes with (``compatible``, from the type's
        SemanticSpec), and compatibility is symmetric, so every other
        holder's group must be among them unless the holder is an
        inclusive ancestor; a retained record (``__retain__``) commutes
        with nothing."""
        node, owner, obj, mode, colour = lock_labels(event.labels)
        if not owner or not obj:
            return

        def found(kind: str, message: str, *earlier: int) -> None:
            self._finding(kind, message, event, *earlier, colour=colour,
                          node=node, action=owner, object=obj)

        closed = self._closed.get(owner, {}).get(node)
        if closed is not None:
            found(F.TWO_PHASE, f"lock on {obj} granted to {owner} after it "
                               f"began releasing", closed)
        held = self.world.holds.get((node, obj), {})
        if mode in DATA_MODES:
            for other, records in held.items():
                exclusive = mode in EXCLUSIVE_MODES or any(
                    record.mode in EXCLUSIVE_MODES
                    for record in records.values())
                if other != owner and exclusive \
                        and self._is_ancestor(other, owner) is False:
                    found(F.LOCK_RULE, f"{mode} lock on {obj} granted to "
                                       f"{owner} while non-ancestor {other} "
                                       f"holds it")
            for other, records in held.items():
                for record in records.values():
                    if mode == record.mode == "write" \
                            and record.colour != colour:
                        found(F.LOCK_RULE, f"write lock on {obj} granted in "
                                           f"colour {colour} while a "
                                           f"{record.colour}-coloured write "
                                           f"record exists (holder {other})")
            self._access(event.seq, owner, obj, colour, mode)
        elif event.labels.get("semantic") is not None:
            compatible = set(split(event.labels.get("compatible", "")))
            for other, records in held.items():
                clash = sorted(record.mode for record in records.values()
                               if record.mode not in DATA_MODES
                               and record.mode not in compatible)
                if other != owner and clash \
                        and self._is_ancestor(other, owner) is False:
                    found(F.SEMANTIC_LOCK_RULE,
                          f"group {mode} on {obj} granted to {owner} while "
                          f"non-ancestor {other} holds incompatible group "
                          f"{clash[0]}")
            if event.labels.get("commuting") is not None:
                self._commuting.setdefault(owner, set()).add(
                    (node, colour, mode))

    def _access(self, seq: int, owner: str, obj: str, colour: str,
                mode: str) -> None:
        history = self._accesses.setdefault((obj, colour), [])
        if len(history) >= MAX_ACCESSES:
            return
        for _, other, other_mode in history:
            if other != owner and conflicts(other_mode, mode):
                self.world.after(owner, other)
        history.append((seq, owner, mode))
        self._touched.setdefault(owner, set()).add((obj, colour))

    def _on_lock_released(self, event: ObsEvent) -> None:
        self._closed.setdefault(str(event.label("owner", "")), {}).setdefault(
            str(event.label("node", "")), event.seq)

    def _on_lock_inherited(self, event: ObsEvent) -> None:
        node, _owner, obj, _mode, colour = lock_labels(event.labels)
        dest = str(event.label("to", ""))
        self._on_lock_released(event)
        closed = self._closed.get(dest, {}).get(node)
        if closed is not None:
            self._finding(F.TWO_PHASE, f"lock on {obj} inherited by {dest}, "
                          f"which had already begun releasing", event, closed,
                          colour=colour, node=node, action=dest, object=obj)

    def _on_node_restart(self, event: ObsEvent) -> None:
        node = str(event.label("node", ""))
        for marks in self._closed.values():
            marks.pop(node, None)
        for marks in self._commuting.values():
            marks.difference_update([mark for mark in marks
                                     if mark[0] == node])

    # -- commit routing / permanence ------------------------------------------

    def _expected_route(self, action_uid: str, colour: str):
        """Closest not-yet-terminated ancestor possessing the colour.

        Returns its uid, "" for "permanent" (outermost for the colour), or
        the _UNKNOWN sentinel when the parent chain is not fully known.
        Terminated ancestors are skipped: a committed ancestor's
        responsibilities have moved further up, an aborted one is gone —
        this matches the runtime's live-ancestor reparenting.
        """
        last = self.world.actions.get(action_uid)
        if last is None:
            return _UNKNOWN
        for last in self.world.ancestors(action_uid):
            if colour in last.colours and last.end_seq is None:
                return last.uid
        return _UNKNOWN if last.parent else ""

    def _on_commit_route(self, event: ObsEvent) -> None:
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
        self._finding(F.COMMIT_ROUTE, message, event, colour=colour,
                      node=str(event.label("node", "")), action=action)

    def _on_colour_permanent(self, event: ObsEvent) -> None:
        action = str(event.label("action", ""))
        colour = str(event.label("colour", ""))
        where = {"colour": colour, "node": str(event.label("node", "")),
                 "action": action}
        info = self.world.actions.get(action)
        if info is None:
            return
        if colour and colour not in info.colours:
            self._finding(F.ATOMICITY, f"{action} persisted colour {colour} "
                          f"it does not possess", event, **where)
        elif info.outcome == "aborted":
            self._finding(F.ATOMICITY, f"aborted action {action} persisted "
                          f"colour {colour}", event,
                          info.end_seq or event.seq, **where)

    # -- 2PC state machine -----------------------------------------------------

    def _on_twopc_decision(self, event: ObsEvent) -> None:
        state = self.world.txn(event)
        if state is None:
            return
        decision = str(event.label("decision", ""))
        opposite = "abort" if decision == "commit" else "commit"
        if opposite in state.decisions:
            self._finding(F.DECISION_CONFLICT, f"{state.txn} decided "
                          f"{decision} after deciding {opposite}", event,
                          state.decisions[opposite], txn=state.txn,
                          colour=state.colour)
        if decision == "commit":
            # a commute vote is affirmative: the voter consented and left
            # the protocol, it does not gate the decision; nor does a node
            # that is not a participant, whatever it answered
            negative = [vote for vote in state.votes
                        if vote.vote not in AFFIRMATIVE
                        and (not state.participants
                             or vote.node in state.participants)]
            if negative:
                # the first node to vote that voted no, its first no
                voters = list(dict.fromkeys(vote.node for vote in state.votes))
                first = min(negative, key=lambda vote: voters.index(vote.node))
                self._finding(F.COMMIT_AFTER_ROLLBACK, f"{state.txn} decided "
                              f"commit although {first.node} voted "
                              f"{first.vote}", event, first.seq,
                              txn=state.txn, node=first.node,
                              colour=state.colour)
        fast_path = str(event.label("fast_path", ""))
        if decision == "commit" and fast_path == "commute":
            # commute decisions are taken locally and concurrently at every
            # participant — there is no vote quorum to check; their
            # soundness rests on the commutativity of the colour instead
            self._check_commute_decision(event, state)
        elif decision == "commit" and fast_path and state.participants:
            # a fast-path decision is taken *at a participant*: it is only
            # sound if the coordinator delegated it after collecting every
            # other participant's affirmative vote
            decider = str(event.label("node", ""))
            missing = sorted(
                p for p in state.participants
                if p != decider and not any(
                    vote.node == p and vote.vote in AFFIRMATIVE
                    for vote in state.votes)
            )
            if missing:
                self._finding(F.FAST_PATH_NO_QUORUM, f"{state.txn} decided "
                              f"commit via fast path {fast_path} at "
                              f"{decider} without an affirmative vote from "
                              f"{missing[0]}", event, txn=state.txn,
                              node=decider, colour=state.colour)

    def _check_commute_decision(self, event: ObsEvent, state) -> None:
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
        where = {"txn": state.txn, "node": node, "colour": colour,
                 "action": owner}
        marks = self._commuting.get(owner, ())
        for group in split(event.label("groups", "")):
            if (node, colour, group) not in marks:
                self._finding(F.COMMUTE_UNSOUND, f"{state.txn} decided "
                              f"commit locally (commute path) at {node} "
                              f"applying group {group}, which was never "
                              f"granted to {owner} with the commuting flag",
                              event, **where)
        for (held_node, obj), holders in sorted(self.world.holds.items()):
            record = holders.get(owner, {}).get(colour)
            if held_node == node and record is not None \
                    and record.mode in EXCLUSIVE_MODES:
                self._finding(F.COMMUTE_UNSOUND, f"{state.txn} decided "
                              f"commit locally (commute path) at {node} "
                              f"although {owner} holds exclusive "
                              f"{record.mode} on {obj} in the deciding "
                              f"colour", event, object=obj, **where)

    def _on_twopc_commit(self, event: ObsEvent) -> None:
        state = self.world.txn(event)
        if state is None:
            return
        node = str(event.label("node", ""))
        if "commit" not in state.decisions and "commit" not in state.queried:
            self._finding(F.COMMIT_WITHOUT_DECISION, f"{node} promoted "
                          f"shadows for {state.txn} with no commit decision "
                          f"in evidence", event, txn=state.txn, node=node)
        if "abort" in state.decisions:
            self._finding(F.ATOMICITY, f"{node} promoted shadows for "
                          f"{state.txn}, which decided abort — aborted "
                          f"colour left stable effects", event,
                          state.decisions["abort"], txn=state.txn,
                          node=node, colour=state.colour)

    def _on_twopc_decision_query(self, event: ObsEvent) -> None:
        state = self.world.txn(event)
        if state is None:
            return
        decision = str(event.label("decision", ""))
        if (decision == "abort" and "commit" in state.decisions
                and state.end_seq is None):
            self._finding(F.PRESUMED_ABORT, f"coordinator answered abort for "
                          f"{state.txn}, which it decided to commit and has "
                          f"not finished", event, state.decisions["commit"],
                          txn=state.txn, node=str(event.label("node", "")))
        if decision == "commit" and "abort" in state.decisions:
            self._finding(F.DECISION_CONFLICT, f"coordinator answered commit "
                          f"for {state.txn}, which decided abort", event,
                          state.decisions["abort"], txn=state.txn)

    def _on_twopc_end(self, event: ObsEvent) -> None:
        state = self.world.txn(event)
        if state is None:
            return
        for node in sorted({vote.node for vote in state.votes
                            if vote.vote == "commit"}):
            if node not in state.applies and node not in state.aborts:
                self._finding(F.IN_DOUBT_AFTER_END, f"coordinator ended "
                              f"{state.txn} but commit-voter {node} never "
                              f"saw the decision", event, txn=state.txn,
                              node=node)

    # -- serialization graph -----------------------------------------------------

    def _chain_committed(self, owner: str, colour: str) -> bool:
        """Did the whole inheritance chain of this access decide commit?

        Owner, then every ancestor possessing the colour up to the
        serialization unit: an aborted link anywhere means the access left
        no effects in this colour (failure atomicity) and must not
        contribute conflict edges.  Open or unknown links count as
        committed — a pessimistic choice that keeps live cycles visible.
        """
        info = self.world.actions.get(owner)
        if info is None:
            return True
        return info.outcome != "aborted" and not any(
            above.outcome == "aborted"
            for above in self.world.ancestors(owner)
            if colour in above.colours)

    def _unit_of(self, owner: str, colour: str) -> str:
        """The serialization unit: topmost static ancestor with the colour."""
        unit = owner
        for above in self.world.ancestors(owner):
            if colour in above.colours:
                unit = above.uid
        return unit

    def _cycles(self, accesses) -> List[Finding]:
        """A finding per colour whose serialization graph over
        ``accesses`` has a cycle."""
        graphs: Dict[str, SerializationGraph] = {}
        for (obj, colour), history in sorted(accesses.items()):
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
        found = []
        for colour, graph in sorted(graphs.items()):
            cycle = graph.find_cycle()
            if cycle is not None:
                found.append(Finding(
                    kind=F.SERIALIZATION_CYCLE, colour=colour,
                    message=(f"serialization units of colour {colour} "
                             f"form a cycle: {' -> '.join(cycle)}"),
                    event_seqs=graph.cycle_witnesses(cycle)))
        return found

    #: kind -> handler, or None for a kind only the World's fold needs;
    #: the keys are the kinds the World reads for the auditor
    HANDLERS = {
        "action.begin": None,
        "action.end": None,
        "lock.granted": _on_lock_granted,
        "lock.released": _on_lock_released,
        "lock.inherited": _on_lock_inherited,
        "node.restart": _on_node_restart,
        "commit.route": _on_commit_route,
        "colour.permanent": _on_colour_permanent,
        "twopc.begin": None,
        "twopc.vote": None,
        "twopc.decision": _on_twopc_decision,
        "twopc.commit": _on_twopc_commit,
        "twopc.abort": None,
        "twopc.decision_query": _on_twopc_decision_query,
        "twopc.end": _on_twopc_end,
    }

"""The object server: hosts objects, lock tables, and the 2PC participant.

One server runs per node (the Arjuna object-store + lock-manager pair).
Everything except the stable object store and the write-ahead log is
volatile: lock tables, action mirrors, undo records and the RPC reply cache
vanish at a crash — the client-side epoch checks and the prepared-state
recovery below are what make that survivable.

Server-side model: for each remote action that touches this node, a local
:class:`ActionMirror` is rebuilt from the action context carried in the
request (uids, ancestry path, colours).  The mirror holds the locks (it
implements the LockOwner interface) and the per-colour undo records and
write sets, exactly like a local :class:`~repro.actions.action.Action`.
Commit-time routing decisions are made by the *client* (it knows the whole
tree) and arrive as explicit transfer/release/2PC messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.actions.record import UndoLedger
from repro.cluster.message import (
    Message,
    decode_action_context,
    decode_colour,
    decode_ops,
    decode_uid,
    encode_ops,
    encode_uid,
)
from repro.cluster.node import Node
from repro.cluster.transport import Responder, RpcTransport, epoch_of
from repro.cluster.txn import (
    COORDINATOR,
    PARTICIPANT,
    PATHS,
    TxnEntry,
    TxnState,
    decision_of,
    path_of,
)
from repro.colours.colour import Colour
from repro.errors import (
    ClusterError,
    LockRefused,
    LockTimeout,
    ObjectNotFound,
    PrepareFailed,
)
from repro.locking.deadlock import cycle_through
from repro.locking.modes import LockMode, Mode, mode_from_label, mode_label
from repro.locking.registry import LockRegistry
from repro.locking.request import LockRequest, RequestStatus
from repro.locking.rules import ColouredRules
from repro.objects.lockable import operation_of
from repro.objects.state_manager import StateManager
from repro.sim.kernel import Timeout
from repro.util.uid import Uid, UidGenerator


@dataclass
class ActionMirror:
    """Server-side image of a remote action: identity, ancestry, colours,
    and this node's share of its undo records and write sets."""

    uid: Uid
    path: Tuple[Uid, ...]
    colours: FrozenSet[Colour]
    home: str = ""
    #: the home's epoch in the rpc id of the request that built the mirror
    #: (a finish route's destination takes its source's): a notice that
    #: the home restarted in a later epoch makes the mirror an orphan
    epoch: int = 0
    #: sim time the mirror was built — first involvement of the action at
    #: this node; lock hold time is measured from here to retirement.
    created_tick: float = 0.0
    #: a colour of the action is PREPARED here: it is committing, so it
    #: waits for no lock anywhere (the edge chaser skips it)
    prepared: bool = False
    #: per-colour undo responsibility and write sets, kept exactly as a
    #: local :class:`~repro.actions.action.Action` keeps its own
    ledger: UndoLedger = field(default_factory=UndoLedger)

    @property
    def written(self) -> Dict[Colour, Dict[Uid, StateManager]]:
        """colour -> object uid -> object written here in that colour."""
        return self.ledger.written


class ServerObjectHost:
    """The minimal 'runtime' server-hosted objects are constructed against.

    Objects built on a server never block for locks themselves (the server
    takes locks before running operation bodies), so only uid allocation
    and registration are needed.
    """

    def __init__(self, server: "ObjectServer"):
        self._server = server
        self._object_uids = UidGenerator(f"obj@{server.node.name}")

    def fresh_object_uid(self) -> Uid:
        return self._object_uids.fresh()

    def register_object(self, obj: StateManager, persist: bool = True) -> None:
        self._server.objects[obj.uid] = obj
        if persist:
            obj.persist_to(self._server.node.stable_store)

    @property
    def locks(self) -> LockRegistry:
        """Semantic objects register their specs here at construction."""
        return self._server.registry

    def acquire(self, *args, **kwargs):  # pragma: no cover - guard
        raise ClusterError(
            "server-hosted objects must not self-lock; the server locks "
            "before running operation bodies"
        )


class ObjectServer:
    """Message handlers for one node's objects, locks and transactions."""

    def __init__(self, node: Node, transport: RpcTransport,
                 classes: Dict[str, type], observability, *,
                 lock_wait_timeout: float, edge_chasing: bool,
                 probe_interval: float):
        self.node = node
        self.kernel = node.kernel
        self.transport = transport
        self.classes = dict(classes)
        self.lock_wait_timeout = lock_wait_timeout
        #: how often a queued lock wait is re-read (``_locked_request``)
        self.probe_interval = probe_interval
        #: the cluster's hub: lock waits are observed through it, and
        #: votes, decisions and restarts announced as events
        self.obs = observability
        self.host = ServerObjectHost(self)
        self._fresh_volatile()
        self._undo_seq = 0
        # metrics
        self.invocations = 0
        self.lock_waits = 0
        #: lock grants by mode and local decisions by fast path, as
        #: running totals the hub's registry pulls (:meth:`_tallies`);
        #: kept here because a restart rebuilds the lock registry
        self.lock_grants: Dict[str, int] = {}
        self.fast_path_decisions: Dict[str, int] = {}
        observability.metrics.collect(self._tallies)

        for kind, handler in [
            ("create", self._h_create),
            ("invoke", self._h_invoke),
            ("lock", self._h_lock),
            ("finish_commit", self._h_finish_commit),
            ("abort_action", self._h_abort_action),
            ("txn_prepare", self._h_txn_prepare),
            ("txn_commit", self._h_txn_commit),
            ("txn_abort", self._h_txn_abort),
            ("txn_decision_query", self._h_txn_decision_query),
            ("txn_outcome_query", self._h_txn_outcome_query),
            ("status_query", self._h_status_query),
            ("home_restarted", self._h_home_restarted),
        ]:
            transport.register(kind, handler)
        node.add_recovery_hook(self._recover)
        # cross-server cycles: a wait ``probe_interval`` old is chased, and
        # chased again only when its blockers change (cluster/deadlock.py)
        self.edge_chaser = None
        if edge_chasing:
            from repro.cluster.deadlock import EdgeChaser
            self.edge_chaser = EdgeChaser(self)

    def _fresh_volatile(self) -> None:
        """The state a crash wipes, built empty: at start and at every
        restart, with a fresh lock registry each time."""
        self.objects: Dict[Uid, StateManager] = {}
        self.registry = LockRegistry(ColouredRules(),
                                     namespace=f"lreq@{self.node.name}")
        self.registry.on_event = self._emit_lock_event
        self.mirrors: Dict[Uid, ActionMirror] = {}
        #: objects fenced off because a transaction recovered in doubt
        #: (PREPARED on the log, no decision yet) holds their shadow slot
        self.in_doubt_objects: Set[Uid] = set()

    # -- views over the node's transaction table -----------------------------

    @property
    def prepared(self) -> Dict[str, TxnEntry]:
        """txn_id -> entry of every transaction prepared here and not yet
        decided (in doubt included)."""
        return self.node.txns.prepared

    # -- plumbing ------------------------------------------------------------

    def _tallies(self):
        """The running totals as ``lock_grants_total{node, mode}`` and
        ``twopc_fast_path_total{node, kind}`` rows (a registry
        collector)."""
        node = self.node.name
        for mode, count in self.lock_grants.items():
            yield "lock_grants_total", {"node": node, "mode": mode}, count
        for kind, count in self.fast_path_decisions.items():
            yield "twopc_fast_path_total", {"node": node, "kind": kind}, count

    def _emit_lock_event(self, kind: str, **labels) -> None:
        """Registry event sink: forward to the obs bus with a node label."""
        self.obs.emit(kind, node=self.node.name, **labels)

    def _next_undo_seq(self) -> int:
        self._undo_seq += 1
        return self._undo_seq

    def _object(self, object_uid: Uid) -> StateManager:
        """The live instance, activated from the stable store if needed."""
        obj = self.objects.get(object_uid)
        return obj if obj is not None else self._activate(object_uid)

    def _activate(self, object_uid: Uid) -> StateManager:
        """A new instance holding the committed state; its construction
        registers it in ``self.objects``."""
        stored = self.node.stable_store.read_committed(object_uid)  # may raise
        cls = self.classes.get(stored.type_name)
        if cls is None:
            raise ClusterError(f"no class registered for {stored.type_name!r}")
        obj = cls(self.host, uid=object_uid, persist=False)
        obj.restore_snapshot(stored.payload)
        return obj

    def _mirror(self, context: List[Tuple[Uid, FrozenSet[Colour], str]],
                epoch: int) -> ActionMirror:
        """Get or build the mirror for the last entry of an action context
        — the acting action, or the destination of a commit route — in
        its home's ``epoch``.  Its ancestors get none: they contribute the
        ``path``, and only an action that comes here itself is ever told
        to leave."""
        uid, colours, home = context[-1]
        mirror = self.mirrors.get(uid)
        if mirror is None:
            mirror = self.mirrors[uid] = ActionMirror(
                uid=uid, path=tuple(entry[0] for entry in context),
                colours=colours, home=home, epoch=epoch,
                created_tick=self.kernel.now)
        return mirror

    def _ok(self, extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        reply = {"epoch": self.node.epoch}
        if extra:
            reply.update(extra)
        return reply

    # -- handlers: objects -------------------------------------------------------

    def _h_create(self, message: Message, respond: Responder) -> None:
        """Create an object (non-transactional, like Arjuna's first persist)."""
        payload = message.payload
        cls = self.classes.get(payload["type_name"])
        if cls is None:
            respond(False, ClusterError(f"unknown type {payload['type_name']!r}"))
            return
        obj = cls(self.host, *payload.get("args", []), **payload.get("kwargs", {}))
        respond(True, self._ok({"object_uid": encode_uid(obj.uid)}))

    def _h_invoke(self, message: Message, respond: Responder) -> None:
        """Lock (per the operation's declared mode) then run an operation."""
        payload = message.payload
        name = payload["method"]
        args = payload.get("args", [])

        def declared_mode(obj: StateManager) -> Mode:
            declared = operation_of(type(obj), name)
            if declared is None:
                raise ClusterError(f"{obj.type_name}.{name} is not an operation")
            self.invocations += 1
            return declared.mode

        def run(obj: StateManager, mirror: ActionMirror, colour: Colour) -> None:
            declared = operation_of(type(obj), name)
            try:
                result = declared.body(obj, *args)
            except Exception as error:  # app exception: report, don't apply
                respond(False, error)
                return
            if declared.inverse is not None:
                # type-specific recovery: the operation, not a before-image
                mirror.ledger.note_operation(
                    obj, colour, name, args, result, declared.inverse,
                    self._next_undo_seq(), mirror.uid)
            respond(True, self._ok({"result": result}))

        self._lock_then(message, respond, declared_mode, name, run)

    def _h_lock(self, message: Message, respond: Responder) -> None:
        """Explicit lock acquisition (hand-over pins, companion locks)."""
        label = message.payload["mode"]
        self._lock_then(
            message, respond, lambda obj: mode_from_label(label),
            f"lock {label}", lambda obj, mirror, colour: respond(True, self._ok()))

    def _lock_then(self, message: Message, respond: Responder,
                   mode_of: Callable[[StateManager], Mode], what: str,
                   granted: Callable[[StateManager, "ActionMirror", Colour], None],
                   ) -> None:
        """The frame of the two lock-taking handlers, ``invoke`` and ``lock``.

        Refuses while the object is fenced in doubt, activates it, asks
        ``mode_of(obj)`` which lock the request needs, takes it for
        the sender's mirror and — the before-image of a WRITE captured —
        hands ``(obj, mirror, colour)`` to ``granted``, which replies.  A
        lock that is not granted is answered here, ``what`` naming the
        request — and if that leaves the mirror with no lock, no undo and
        no other request waiting, the mirror goes with the answer: the
        client notes a node only when a request succeeds or times out, so
        nobody would ever come to retire it.  Every error raised on the way
        in answers the rpc.
        """
        payload = message.payload
        object_uid = decode_uid(payload["object_uid"])
        if object_uid in self.in_doubt_objects:
            raise ClusterError(
                f"object {object_uid} is in doubt pending transaction recovery"
            )
        obj = self._object(object_uid)
        colour = decode_colour(payload["colour"])
        mode = mode_of(obj)
        mirror = self._mirror(decode_action_context(payload["action"]),
                              epoch_of(payload["rpc_id"]))

        def completed(request: LockRequest) -> None:
            if request.status is not RequestStatus.GRANTED:
                respond(False, request.error or LockTimeout(
                    f"{what} on {object_uid}: {request.refusal}"
                ))
                if (self._idle(mirror) and not
                        self.registry.pending_requests_of(mirror.uid)):
                    self.mirrors.pop(mirror.uid, None)
                return
            if mode is LockMode.WRITE:
                mirror.ledger.note_write(obj, colour, self._next_undo_seq(),
                                         mirror.uid)
            granted(obj, mirror, colour)

        self._locked_request(mirror, object_uid, mode, colour, completed)

    def _locked_request(self, mirror: ActionMirror, object_uid: Uid,
                        mode: Mode, colour: Colour,
                        completed: Callable[[LockRequest], None]) -> None:
        """Request a lock for ``mirror`` with the server's wait policy:
        fast abort, edge chasing, the wait timeout.

        A cycle the queued request closes is refused at once (the fast
        abort).  Otherwise the queued request owns one timer chain here
        (a :class:`_LockWait`), waking every ``probe_interval`` and last at
        its deadline, ``lock_wait_timeout`` after it queued.  A wake ends the chain if
        the request has settled or the node crashed since it queued.  It
        then re-reads the request's blockers: if they changed since the
        last wake while nothing left the table by abort, cancel or
        refusal, commits and grants moved the queue, and the deadline
        restarts from now.  Otherwise it refuses the request with
        :class:`LockTimeout` at the deadline, or else hands the waiter's
        blockers to the edge chaser, which probes only when they changed.
        A wait that stops moving therefore times out ``lock_wait_timeout``
        after its last move; a cycle closed by a lock transfer rather
        than by a queued request is left to the chaser, or to that
        timeout when chasing is off.

        A grant is counted here (``lock_wait_time``, and the
        ``lock_grants_total`` tally); a refusal, whatever its cause, is
        reported once, by the registry's ``lock.refused`` event, which
        names the error class."""
        wait_started = self.kernel.now
        mode_name = mode_label(mode)

        def settled(request: LockRequest) -> None:
            if request.status is RequestStatus.GRANTED:
                self.obs.observe("lock_wait_time",
                                 self.kernel.now - wait_started,
                                 node=self.node.name, colour=str(colour))
                grants = self.lock_grants
                grants[mode_name] = grants.get(mode_name, 0) + 1
            completed(request)

        request = self.registry.request(mirror, object_uid, mode, colour, settled)
        if request.settled:
            return
        self.lock_waits += 1
        # Lock-conflict fast abort: if queueing this very request closed a
        # waits-for cycle through its own action, the wait is *certain* to
        # deadlock — every holder ahead of it transitively waits on this
        # action, and holders only release at commit/abort.  Refuse it now
        # as a deterministic lock conflict instead of parking it for the
        # deadlock chaser to victimise later.
        cycle = cycle_through(self.registry, mirror.uid)
        if cycle is not None:
            self.obs.count("lock_fast_aborts_total", node=self.node.name)
            self.registry.cancel_request(
                request,
                reason=("waiting would close a deadlock cycle: "
                        + " -> ".join(str(uid) for uid in cycle)),
                error=LockRefused(
                    f"lock {mode_name} on {object_uid}: granting the wait "
                    f"would deadlock with {max(len(cycle) - 1, 1)} other "
                    f"action(s)"
                ),
            )
            return
        wait = _LockWait(self, request, mirror.uid,
                         wait_started + self.lock_wait_timeout)
        self.kernel.schedule(min(self.probe_interval, self.lock_wait_timeout),
                             wait.wake)

    # -- handlers: action termination ------------------------------------------------

    def _h_finish_commit(self, message: Message, respond: Responder) -> None:
        """Apply the client's per-colour routing for a committing action.

        ``routes``: list of {colour, dest: action-context or None}.  Colours
        routed to an ancestor have their locks, undo records and write sets
        moved to that ancestor's mirror; colours routed to None are released
        (their permanence, if any, was already handled by 2PC).

        Idempotent: re-delivery (a client-side reaper retrying a partition-
        swallowed finish under a fresh rpc id) finds the mirror gone and
        acks without re-applying, so over-delivery is always safe.
        """
        payload = message.payload
        action_uid = decode_uid(payload["action_uid"])
        mirror = self.mirrors.get(action_uid)
        if mirror is None:
            # Crash wiped the mirror (or nothing ever happened here): the
            # client's epoch check is responsible for safety; ack silently.
            respond(True, self._ok({"known": False}))
            return
        self._finish_action(mirror, payload["routes"])
        respond(True, self._ok({"known": True}))

    def _finish_action(self, mirror: ActionMirror, routes: List[Dict[str, Any]]) -> None:
        """Apply per-colour commit routing to a mirror and retire it.

        Shared by the finish_commit handler and the delegated (piggybacked)
        prepare path, where the routing rides inside the prepare itself.
        """
        destinations: Dict[Colour, Optional[ActionMirror]] = {}
        for route in routes:
            colour = decode_colour(route["colour"])
            if route["dest"] is None:
                destinations[colour] = None
            else:
                destinations[colour] = self._mirror(
                    decode_action_context(route["dest"]), mirror.epoch)
        for colour, destination in sorted(
                destinations.items(), key=lambda item: item[0].uid):
            if destination is not None:
                mirror.ledger.bequeath(colour, destination.ledger)
            else:
                mirror.ledger.drop(colour)
        self.registry.transfer_on_commit(
            mirror.uid, lambda colour: destinations.get(colour)
        )
        self.mirrors.pop(mirror.uid, None)

    def _h_abort_action(self, message: Message, respond: Responder) -> None:
        """Undo and release everything this node holds for an action."""
        known = self._abort_mirror(decode_uid(message.payload["action_uid"]))
        respond(True, self._ok({"known": known}))

    def _abort_mirror(self, action_uid: Uid) -> bool:
        """Undo the action's writes here and release its locks, its queued
        requests refused; True when a mirror was there."""
        mirror = self.mirrors.pop(action_uid, None)
        if mirror is not None:
            mirror.ledger.unwind()
        self.registry.release_action(action_uid)
        return mirror is not None

    def _h_home_restarted(self, message: Message, respond: Responder) -> None:
        """The orphan rule: ``message.src`` restarted, and the rpc id of
        this notice carries its new epoch.  A mirror it homes that was
        built in an older epoch is an orphan — its client died with the
        home, so nobody would come to end it — and is ended by
        :meth:`_bury`.  A mirror built in the new epoch survives a late
        or repeated notice."""
        home, epoch = message.src, epoch_of(message.payload["rpc_id"])
        for mirror in list(self.mirrors.values()):
            if mirror.home == home and mirror.epoch < epoch:
                self.node.spawn(self._bury(mirror.uid, home),
                                name=f"bury:{mirror.uid}")
        respond(True, self._ok())

    def _bury(self, action_uid: Uid, home: str):
        """End an orphan: first settle each of its PREPARED entries that is
        not in doubt (an in-doubt one has its resolver) by asking the home
        (presumed abort: it answers from its log), then undo and release
        as ``abort_action`` does."""
        for entry in sorted(self.prepared.values(), key=lambda e: e.lsn):
            if (not entry.in_doubt and decode_uid(
                    entry.payload["action_uid"]) == action_uid):
                yield from self._resolve_in_doubt(entry.txn_id, home)
        self._abort_mirror(action_uid)

    def _idle(self, mirror: ActionMirror) -> bool:
        """Nothing — no undo, no write set, no lock — ties the mirror's
        action to this node."""
        return (mirror.ledger.empty
                and not self.registry.objects_held_by(mirror.uid))

    # -- handlers: two-phase commit participant ----------------------------------------

    def _emit_vote(self, txn_id: str, vote: str, colour,
                   reason: str = "") -> None:
        labels = {"txn": txn_id, "node": self.node.name,
                  "vote": vote, "colour": str(colour)}
        if reason:
            labels["reason"] = reason
        self.obs.emit("twopc.vote", **labels)

    def _h_txn_prepare(self, message: Message, respond: Responder) -> None:
        """Phase one: stabilise new states as shadows, log PREPARED, vote.

        A plain object's new state is its live image.  A semantic object
        (one the colour has operations on) gets no shadow here: its
        PREPARED record carries the colour's ``ops`` on it instead, and
        the commit stages committed state ⊕ ops (:meth:`_stage`) — two
        compatible prepares on one object would overwrite each other's
        shadow if it were staged now.

        Three fast-path extensions ride on the same wire kind:

        - ``decide``/``fast_path``: the coordinator delegated the decision
          (one-phase commit, or the piggybacked decision on the last
          prepare of the round).  A commit vote here *is* the decision:
          log COMMITTED directly (flagged ``delegated``) and promote the
          shadows in the same step — no separate txn_commit round trip.
        - ``commute``: every update of the colour at this node belongs to
          a declared-commuting operation group — the coordinator decided
          *before* fan-out and this prepare carries the colour's redo op
          list; vote ``commute`` and locally apply the merged effects in
          the same step (see :meth:`_commute_prepare`).
        - ``finish``: commit routing for this node piggybacked on a
          delegated prepare, applied right after promotion when the
          committing colour is the node's entire involvement.

        ``forget`` lists (lazy acknowledgement of earlier delegated
        commits, R*-style) are absorbed on any prepare before voting.
        """
        payload = message.payload
        txn_id = payload["txn_id"]
        self.node.txns.forgotten.update(payload.get("forget", ()))
        action_uid = decode_uid(payload["action_uid"])
        colour = decode_colour(payload["colour"])
        path = path_of(payload)
        event = path.event
        txns = self.node.txns
        state = txns.state(PARTICIPANT, txn_id)
        if state is TxnState.COMMITTED:
            # Retransmission-safe piggyback: a retried prepare under a
            # fresh rpc id (reaper redelivery, a client retry after a lost
            # reply — possibly in a later epoch) finds the durable commit
            # and answers from it.  Never re-stabilise shadows or re-run
            # promotion: the shadow slot may meanwhile belong to a *later*
            # transaction, and the logged outcome must not be contradicted.
            txns.advance(PARTICIPANT, txn_id, event)
            self._emit_vote(txn_id, path.vote, colour,
                            reason="duplicate-delivery")
            respond(True, self._ok({
                "vote": path.vote, "applied": False,
                "finished": (payload.get("finish") is not None
                             and action_uid not in self.mirrors),
            }))
            return
        expected_epoch = payload.get("expected_epoch")
        if (expected_epoch is not None and expected_epoch != self.node.epoch
                and not payload.get("commute")):
            # (the commute path survives a restart: its prepare carries a
            # redo op list, so it never refuses on a bumped epoch)
            self._emit_vote(txn_id, "refused", colour, reason="epoch-restart")
            respond(False, PrepareFailed(
                f"{self.node.name} restarted (epoch {self.node.epoch} != "
                f"{expected_epoch}); uncommitted state was lost"
            ))
            return
        if state is TxnState.ABORTED:
            # Presumed abort: the coordinator's txn_abort already landed
            # here — this prepare is a straggler (its spawn raced the
            # abort decision).  Voting rollback instead of preparing keeps
            # it from sitting in doubt with stabilised shadows forever.
            # A delegated prepare can race a forced abort (the coordinator
            # gave up on the reply and resolved via txn_outcome_query)
            # the same way; the check covers both.  Once a checkpoint has
            # forgotten the record, the transport drops such a straggler
            # as stale instead: the txn_abort, or the outcome query that
            # forced the abort (sent only once the delegated call had
            # ended, see resolve_delegated), was a later request of its
            # caller.
            txns.advance(PARTICIPANT, txn_id, event)
            self._emit_vote(txn_id, "rollback", colour,
                            reason="presumed-abort-straggler")
            respond(True, self._ok({"vote": "rollback"}))
            return
        if event == "commute":
            self._commute_prepare(message, respond)
            return
        mirror = self.mirrors.get(action_uid)
        written = mirror.written.get(colour, {}) if mirror is not None else {}
        wanted = {decode_uid(raw) for raw in payload["object_uids"]}
        if not wanted.issubset(set(written)):
            self._emit_vote(txn_id, "refused", colour,
                            reason="write-set-lost")
            respond(False, PrepareFailed(
                f"{self.node.name} no longer holds the write set for "
                f"{txn_id} (crash or premature release)"
            ))
            return
        if state is TxnState.PREPARED:
            # already promised (a duplicate under a fresh rpc id): the
            # shadows are stable, the answer stands
            txns.advance(PARTICIPANT, txn_id, event)
            self._emit_vote(txn_id, path.vote, colour,
                            reason="duplicate-delivery")
            respond(True, self._ok({"vote": path.vote}))
            return
        ops = {} if mirror is None else {
            uid: uid_ops for uid, uid_ops in mirror.ledger.ops(colour).items()
            if uid in wanted}
        for object_uid in sorted(wanted.difference(ops)):
            self.node.stable_store.write_shadow(replace(
                written[object_uid].stored_state(), owner=txn_id))
        if event == "decide":
            self._decide_here(
                txn_id, event, message.src, action_uid, colour,
                sorted(wanted), payload.get("fast_path", "one_phase"), ops)
            finished = False
            if payload.get("finish") is not None and mirror is not None:
                self._finish_action(mirror, payload["finish"])
                finished = True
            respond(True, self._ok({"vote": path.vote, "applied": True,
                                    "finished": finished}))
            return
        entry = txns.advance(
            PARTICIPANT, txn_id, event, coordinator=message.src,
            action_uid=encode_uid(action_uid),
            object_uids=[encode_uid(u) for u in sorted(wanted)],
            **({"ops": encode_ops(ops)} if ops else {}),
        )
        entry.colour = colour
        if mirror is not None:
            mirror.prepared = True
        self._emit_vote(txn_id, path.vote, colour)
        respond(True, self._ok({"vote": path.vote}))

    def _decide_here(self, txn_id: str, event: str, coordinator: str,
                     action_uid: Uid, colour: Colour, object_uids: List[Uid],
                     fast_path: str, ops: Dict[Uid, list],
                     hook: str = "committed", **labels: str) -> None:
        """A decision taken *at this participant*: the vote is the decision
        (one-phase, piggyback) or was guaranteed before fan-out (commute).

        One durable COMMITTED record (flagged ``delegated``) replaces the
        classic prepared/committed pair; the coordinator forgets it lazily.
        The semantic objects' merged images are staged first and the record
        is logged before promotion — recovery redoes the (idempotent)
        promotion from the record's object list if we crash in between.
        ``ops`` and ``hook`` are :meth:`_settle`'s; ``labels`` ride on the
        decision event.
        """
        commute = event == "commute"
        self._stage(txn_id, ops)
        entry = self.node.txns.advance(
            PARTICIPANT, txn_id, event, delegated=True,
            coordinator=coordinator, action_uid=encode_uid(action_uid),
            object_uids=[encode_uid(u) for u in object_uids],
            **({"commute": True} if commute else {}),
        )
        entry.colour = colour
        decisions = self.fast_path_decisions
        decisions[fast_path] = decisions.get(fast_path, 0) + 1
        self._emit_vote(txn_id, PATHS[event].vote, colour)
        self.obs.emit("twopc.decision", txn=txn_id, decision="commit",
                      fast_path=fast_path, node=self.node.name,
                      colour=str(colour), **labels)
        self._settle(entry, ops, hook)

    # -- the commute path (coordination avoidance) -------------------------------------

    def _commute_prepare(self, message: Message, respond: Responder) -> None:
        """Commute path: local vote-and-apply with merged effects.

        The coordinator logged its COMMIT *before* fan-out — it may do so
        because every update of the colour belongs to a declared-commuting
        operation group (total, no failing preconditions at commit), so
        every participant's vote is guaranteed-yes.  The prepare carries
        the colour's full redo op list per object; this node folds the
        merged effects into committed state, logs one COMMITTED record
        (flagged ``delegated`` — the coordinator forgets it lazily, like a
        piggybacked decision), releases the colour's locks and leaves the
        protocol.  No phase two, no prepared window, no in-doubt state.

        A restarted participant (epoch mismatch) re-applies from the redo
        list in the message instead of refusing: the decision is already
        durable at the coordinator, so refusal could only delay the
        inevitable.  Duplicate deliveries (reaper redelivery after a lost
        reply) are absorbed by the COMMITTED dedupe guard upstream.
        """
        payload = message.payload
        txn_id = payload["txn_id"]
        colour = decode_colour(payload["colour"])
        expected_epoch = payload.get("expected_epoch")
        in_memory = (expected_epoch is None
                     or expected_epoch == self.node.epoch)
        mirror = self._mirror(decode_action_context(payload["action"]),
                              epoch_of(payload["rpc_id"]))
        ops_by_object = decode_ops(payload["ops"])
        blocked = sorted(uid for uid in ops_by_object
                         if uid in self.in_doubt_objects)
        if blocked:
            # another transaction's in-doubt shadow fences these objects;
            # retryable — the coordinator's reaper redelivers once the
            # in-doubt resolver settles the slot
            respond(False, ClusterError(
                "objects in doubt pending transaction recovery: "
                + ", ".join(str(uid) for uid in blocked)
            ))
            return
        groups_of: Dict[Uid, Set[str]] = {}
        for object_uid in sorted(ops_by_object):
            try:
                obj = self._object(object_uid)
            except ObjectNotFound as error:
                respond(False, error)
                return
            spec = getattr(type(obj), "SEMANTICS", None)
            groups: Set[str] = set()
            for method_name, args in ops_by_object[object_uid]:
                declared = operation_of(type(obj), method_name)
                # defence in depth: the client checked eligibility, but a
                # local decision is only sound for declared-commuting ops
                if (declared is None or spec is None
                        or not spec.is_commuting(declared.mode)):
                    self._emit_vote(txn_id, "refused", colour,
                                    reason="non-commuting")
                    respond(False, PrepareFailed(
                        f"{obj.type_name}.{method_name} is not a declared-"
                        f"commuting operation; commute decision refused"
                    ))
                    return
                groups.add(declared.mode)
            groups_of[object_uid] = groups
        # the redo takes only the group locks the mirror lacks in the
        # colour: none at a live participant, which holds them since the
        # invoke, and every one after a restart, whose grants died with
        # the epoch (the only redo request that can wait)
        holds = self.registry.holds
        grants = [(object_uid, group) for object_uid, groups in
                  groups_of.items() for group in sorted(groups)
                  if not holds(mirror.uid, object_uid, group, colour)]

        def apply() -> None:
            self._commute_apply(txn_id, mirror, colour, ops_by_object,
                                groups_of, payload, message.src, in_memory,
                                respond)

        def refused(request: LockRequest) -> None:
            self._emit_vote(txn_id, "refused", colour, reason="redo-lock-lost")
            respond(False, request.error or LockTimeout(
                f"commute redo lock {mode_label(request.mode)} on "
                f"{request.object_uid}: {request.refusal}"
            ))

        self._redo_locks(mirror, colour, grants, apply, refused)

    def _redo_locks(self, mirror: ActionMirror, colour: Colour,
                    grants: List[Tuple[Uid, str]], apply: Callable[[], None],
                    refused: Callable[[LockRequest], None]) -> None:
        """Take a commute redo's ``grants`` one after another, then
        ``apply``; the first that is not granted goes to ``refused``.  Each
        grant's callback calls this method again on the rest, so no closure
        of the chain refers to itself."""
        if not grants:
            apply()
            return
        (object_uid, group), rest = grants[0], grants[1:]

        def completed(request: LockRequest) -> None:
            if request.status is not RequestStatus.GRANTED:
                refused(request)
                return
            self._redo_locks(mirror, colour, rest, apply, refused)

        self._locked_request(mirror, object_uid, group, colour, completed)

    def _commute_apply(self, txn_id: str, mirror: ActionMirror,
                       colour: Colour, ops: Dict[Uid, list],
                       groups_of: Dict[Uid, Set[str]], payload: Dict[str, Any],
                       coordinator: str, in_memory: bool,
                       respond: Responder) -> None:
        """Vote-and-apply, then let the colour leave this node.

        The merged effects are folded into committed state as on every
        commit path (:meth:`_decide_here`).  The live instance already ran
        the operations and takes their ``committed`` hooks — unless the
        node restarted since (``in_memory`` false): then the effects died
        with the old epoch, and it takes their full ``redo``."""
        # a duplicate delivery may have decided the transaction while this
        # one waited for its redo locks: then there is nothing left to
        # apply, only the locks just taken to let go
        applied = self.node.txns.state(PARTICIPANT, txn_id) is TxnState.NONE
        if applied:
            self._decide_here(
                txn_id, "commute", coordinator, mirror.uid, colour,
                sorted(ops), "commute", ops,
                "committed" if in_memory else "redo", action=str(mirror.uid),
                groups=",".join(sorted(set().union(*groups_of.values()))))
        # vote-and-apply: the colour leaves this node now — no phase two
        self.registry.release_colour(mirror.uid, colour,
                                     reason="commute-commit")
        finished = False
        if payload.get("finish") is not None:
            self._finish_action(mirror, payload["finish"])
            finished = True
        elif self._idle(mirror):  # its last colour left with the vote
            self.mirrors.pop(mirror.uid, None)
        respond(True, self._ok({"vote": PATHS["commute"].vote,
                                "applied": applied, "finished": finished}))

    def _stage(self, txn_id: str, ops: Dict[Uid, list]) -> None:
        """Stage each semantic object's commit as ``txn_id``'s shadow:
        committed state ⊕ the colour's ``ops`` on it (``merged``), just
        before the COMMITTED record whose :meth:`_settle` promotes it."""
        store = self.node.stable_store
        for object_uid in sorted(ops):
            committed = store.read_committed(object_uid)
            store.write_shadow(replace(
                self.classes[committed.type_name].merged(
                    committed, ops[object_uid]), owner=txn_id))

    def _h_txn_commit(self, message: Message, respond: Responder) -> None:
        """Decision = commit: promote shadows, release the colour."""
        applied = self._decide(message.payload["txn_id"], "commit")
        respond(True, self._ok({"applied": applied}))

    def _h_txn_abort(self, message: Message, respond: Responder) -> None:
        """Decision = abort: discard shadows (undo restore comes with
        abort_action, which rides behind it in the coordinator's abort).

        The ABORTED record is logged even when nothing was prepared here:
        a straggler prepare that arrives *after* this decision must find
        it and vote rollback (see :meth:`_h_txn_prepare`), not stabilise
        shadows for a transaction that is already dead — until a
        checkpoint forgets it, when the straggler is stale instead.
        """
        self._decide(message.payload["txn_id"], "abort")
        respond(True, self._ok())

    def _decide(self, txn_id: str, decision: str) -> bool:
        """Deliver a decision (``commit``/``abort``, also the event names)
        to this participant; True when it moved the transaction.

        Whoever delivers it first — the coordinator's fan-out, its reaper,
        or the in-doubt resolver — takes the edge and carries it out; every
        later delivery finds the absorbing state and is answer-only, so the
        shadow slot (which may by then belong to a *later* transaction) is
        touched exactly once per transaction.  A commit of a PREPARED
        entry first stages its semantic objects' merged images from the
        record's ``ops`` (:meth:`_stage`).
        """
        prepared = self.prepared.get(txn_id)
        ops = decode_ops(prepared.payload.get("ops", {})) if prepared else {}
        if decision == "commit":
            self._stage(txn_id, ops)
        entry = self.node.txns.advance(PARTICIPANT, txn_id, decision)
        if entry is not None:
            self._settle(entry, ops, "redo" if entry.in_doubt else "committed")
        if decision == "abort":
            self.obs.emit("twopc.abort", txn=txn_id, node=self.node.name)
        return entry is not None

    def _settle(self, entry: TxnEntry, ops: Dict[Uid, list],
                hook: str) -> None:
        """Carry out the decision the table just recorded for ``entry``:
        promote or discard its shadows and lift the in-doubt fences no
        other in-doubt entry still holds.

        After a promotion a plain live instance is refreshed from the
        committed state.  A semantic one (in ``ops``) is never overwritten:
        it also holds other actions' pending compatible effects, so it
        runs ``hook`` of the colour's operations instead — ``committed``,
        or ``redo`` when it never ran them (the entry outlived a restart)."""
        commit = entry.state is TxnState.COMMITTED
        object_uids = entry.object_uids
        colour, entry.colour = entry.colour, None  # no use once decided
        if entry.in_doubt:  # the fence stays while another one names it
            self.in_doubt_objects.difference_update(
                set(object_uids).difference(*(
                    other.object_uids for other in self.prepared.values()
                    if other.in_doubt)))
        for object_uid in object_uids:
            if not commit:
                self.node.stable_store.discard_shadow(object_uid)
                continue
            self.node.stable_store.commit_shadow(object_uid)
            obj = self.objects.get(object_uid)
            if obj is None:
                continue
            if object_uid in ops:
                obj.settle(ops[object_uid], hook)
            else:
                obj.restore_snapshot(self.node.stable_store.read_committed(
                    object_uid).payload)
        if not commit:
            return
        self.obs.emit(
            "twopc.commit", txn=entry.txn_id, node=self.node.name,
            objects=",".join(str(u) for u in object_uids),
        )
        mirror = self.mirrors.get(decode_uid(entry.payload["action_uid"]))
        if mirror is not None and colour is not None:
            mirror.ledger.drop(colour)

    def _h_txn_decision_query(self, message: Message, respond: Responder) -> None:
        """Coordinator side of recovery: presumed abort unless logged commit.

        For a *delegated* transaction the answer may live at the last
        agent, not here: presuming abort while the delegate committed
        would split the decision.  The reply is deferred until the
        outcome is resolved (the in-doubt participant keeps retrying, so
        a lost deferral costs nothing but another query) — first of all
        until a delegated prepare this node still has in flight ends.
        """
        txn_id = message.payload["txn_id"]
        state = self.node.txns.state(COORDINATOR, txn_id)
        if state is TxnState.DELEGATED:
            last_agent = self.node.txns.get(
                COORDINATOR, txn_id).payload["last_agent"]
            self.node.spawn(
                self._answer_after_delegate(txn_id, last_agent, respond),
                name=f"delegated-query:{txn_id}",
            )
            return
        self._answer_query(txn_id, decision_of(state), respond)

    def _answer_after_delegate(self, txn_id: str, last_agent: str,
                               respond: Responder):
        """Resolve a delegated transaction's outcome, then answer a query."""
        decision = yield from resolve_delegated(
            self.node, self.transport, txn_id, last_agent)
        self._answer_query(txn_id, decision, respond)

    def _answer_query(self, txn_id: str, decision: str,
                      respond: Responder) -> None:
        self.obs.emit("twopc.decision_query", txn=txn_id,
                      decision=decision, node=self.node.name)
        respond(True, self._ok({"decision": decision}))

    def _h_txn_outcome_query(self, message: Message, respond: Responder) -> None:
        """Last-agent side of delegated recovery: did the piggybacked
        decision ever land here?

        COMMITTED on the log answers commit; otherwise the transaction is
        dead — an ABORTED record is forced onto the log first, so a
        straggling delegated prepare arriving later hits the presumed-abort
        guard instead of committing a transaction already reported aborted.
        The query is sent only after the prepare's call ended, so once a
        checkpoint has forgotten the record the straggler is stale.
        """
        txn_id = message.payload["txn_id"]
        self.node.txns.advance(PARTICIPANT, txn_id, "outcome_query")
        self._answer_query(
            txn_id, decision_of(self.node.txns.state(PARTICIPANT, txn_id)),
            respond)

    # -- introspection -----------------------------------------------------------------

    def status_summary(self) -> Dict[str, Any]:
        """The live :class:`ServerStatus` image served to ``status_query``.

        One synchronous pass over the volatile structures — lock registry,
        action mirrors, prepared/in-doubt transactions — plus the stable
        log's shape.  Strictly read-only: no locks are taken, nothing is
        activated or mutated, so probing a server mid-protocol can never
        perturb the protocol (the introspection layer's contract).
        """
        now = self.kernel.now
        wal = self.node.wal.summary()
        wal["checkpoint_lsn"] = self.node.wal.checkpoint_lsn
        in_flight = []
        for entry in sorted(self.prepared.values(),
                            key=lambda e: (e.in_doubt, e.txn_id)):
            row = {
                "txn": entry.txn_id,
                "phase": "in-doubt" if entry.in_doubt else "prepared",
                "colour": str(entry.colour) if entry.colour else "",
                "action": ("" if entry.in_doubt else
                           str(decode_uid(entry.payload["action_uid"]))),
                "objects": len(entry.payload["object_uids"]),
                "age": now - entry.tick,
            }
            if entry.in_doubt:
                row["coordinator"] = entry.payload["coordinator"]
            in_flight.append(row)
        mirrors = [
            {
                "action": str(mirror.uid),
                "name": f"caction-{mirror.uid.sequence}",
                "home": mirror.home,
                "colours": sorted(str(c) for c in mirror.colours),
                "depth": len(mirror.path),
                "age": now - mirror.created_tick,
            }
            for uid in sorted(self.mirrors)
            for mirror in (self.mirrors[uid],)
        ]
        return {
            "node": self.node.name,
            "epoch": self.node.epoch,
            "now": now,
            "wal": wal,
            "objects": len(self.objects),
            "locks": self.registry.snapshot(),
            "mirrors": mirrors,
            "in_flight": in_flight,
            "in_doubt_objects": sorted(str(u) for u in self.in_doubt_objects),
            "forgotten": len(self.node.txns.forgotten),
            "invocations": self.invocations,
            "lock_waits": self.lock_waits,
            "pending_rpcs": self.transport.pending_count(),
        }

    def _h_status_query(self, message: Message, respond: Responder) -> None:
        """Introspection probe: answer with the live state image, read-only.

        Responds synchronously — a status query never waits on locks or
        other transactions, so a probe cannot deadlock with (or delay) the
        workload it is observing.
        """
        respond(True, self._ok({"status": self.status_summary()}))

    # -- log management ---------------------------------------------------------------

    def checkpoint(self) -> Dict[str, int]:
        """Checkpoint the node's log now (:meth:`TxnTable.checkpoint`); the
        node also does so by itself every ``CHECKPOINT_EVERY`` appends."""
        return self.node.txns.checkpoint()

    # -- recovery ---------------------------------------------------------------------

    def _recover(self) -> None:
        """Restart: settle what the log left open, as participant and as
        coordinator (presumed abort).

        PREPARED records without a matching COMMITTED/ABORTED are in doubt;
        their objects are fenced off until the coordinator answers.  An
        open coordinator entry is taken to its end (:meth:`_terminate`).
        """
        self.obs.emit("node.restart", node=self.node.name)
        self._fresh_volatile()
        txns = self.node.txns  # replayed from the log by Node.restart
        # Redo decisions: a decision's record precedes its effect on the
        # store, so a crash in between leaves the shadow behind.  A shadow
        # names its writer, the transaction whose record it precedes:
        # promote it if that one is logged committed, keep it while that
        # one is in doubt, and drop it otherwise.  Then it aborted, or it
        # crashed before its record — a prepare never logged, or a commit
        # that stages again once the resolver learns the decision; the
        # slot's last logged user may be another, compatible, transaction.
        store = self.node.stable_store
        redone: Dict[str, TxnEntry] = {}
        for object_uid in sorted({uid for entry in txns.entries(PARTICIPANT)
                                  for uid in entry.object_uids}):
            shadow = store.read_shadow(object_uid)
            if shadow is None:
                continue
            state = txns.state(PARTICIPANT, shadow.owner)
            if state is TxnState.COMMITTED:
                store.commit_shadow(object_uid)
                redone[shadow.owner] = txns.get(PARTICIPANT, shadow.owner)
            elif state is not TxnState.PREPARED:
                store.discard_shadow(object_uid)
        # a crash between a commit record and its promotion lost the
        # events the promotion sends: recovery carried it out, so it says so
        for txn_id, entry in sorted(redone.items()):
            if entry.payload.get("delegated"):  # the decision was ours
                self.obs.emit("twopc.decision", txn=txn_id,
                              decision="commit", node=self.node.name)
            self.obs.emit("twopc.commit", txn=txn_id, node=self.node.name)
        # take the coordinator entries pending on the log to their end: a
        # delegation's outcome is learned (decision queries from in-doubt
        # participants need a real answer), a commit is redelivered to
        # every participant still owed it.  A commute entry's redo list is
        # not on the log, so nothing here can redeliver it.  A crash may
        # have fallen between a commit record and its event: say it again
        for entry in txns.entries(COORDINATOR):
            if entry.state is TxnState.COMMIT:
                self.obs.emit("twopc.decision", txn=entry.txn_id,
                              decision="commit", node=self.node.name)
            if entry.pending() and not entry.payload.get("commute"):
                self.node.spawn(self._terminate(entry),
                                name=f"terminate:{entry.txn_id}")
        for entry in sorted(self.prepared.values(), key=lambda e: e.lsn):
            entry.in_doubt = True
            self.in_doubt_objects.update(entry.object_uids)
            self.node.spawn(
                self._resolve_in_doubt(entry.txn_id,
                                       entry.payload["coordinator"]),
                name=f"resolve:{entry.txn_id}",
            )

    def announce_restart(self, others: List[str]) -> None:
        """At the restart of a node that hosts a client: tell each of
        ``others`` (``home_restarted``, until it answers) so that it ends
        the orphans of this home's older epochs."""
        for other in others:
            self.node.spawn(until_answered(self.transport, other,
                                           "home_restarted", {}),
                            name=f"home-restarted:{other}")

    def _terminate(self, entry: TxnEntry):
        """Restart, as coordinator: resolve a delegated entry, then deliver
        a commit to each participant the log says is owed it, and end it."""
        # a no-op unless the entry is DELEGATED; resolved to abort, it owes
        # nobody anything
        yield from resolve_delegated(self.node, self.transport, entry.txn_id,
                                     entry.payload.get("last_agent"))
        owed = sorted(self.node.txns.owed.get(entry.txn_id, ()))
        for participant in owed:
            yield from until_answered(self.transport, participant,
                                      "txn_commit", {"txn_id": entry.txn_id})
        report_acks(self.node, self.obs, entry.txn_id, owed)

    def _resolve_in_doubt(self, txn_id: str, coordinator: str):
        """Query the coordinator until a decision arrives, then apply it —
        unless a redelivered ``txn_commit``/``txn_abort`` already did."""
        reply = yield from until_answered(
            self.transport, coordinator, "txn_decision_query",
            {"txn_id": txn_id})
        self._decide(txn_id, reply["decision"])


class _LockWait:
    """One queued lock request's timer chain under the server's wait policy
    (:meth:`ObjectServer._locked_request`).

    The kernel holds the bound :meth:`wake`, and nothing the wait holds
    refers back to it: the wait is freed by reference counting as soon as
    its last timer has fired, and leaves nothing to the cyclic collector."""

    __slots__ = ("server", "request", "waiter", "table", "epoch", "deadline",
                 "chased", "blockers", "withdrawals")

    def __init__(self, server: ObjectServer, request: LockRequest,
                 waiter: Uid, deadline: float):
        self.server = server
        self.request = request
        self.waiter = waiter
        self.table = server.registry.table(request.object_uid)
        self.epoch = server.node.epoch
        self.deadline = deadline
        self.chased: List[Uid] = []
        self.blockers = self.table.blocked_on(request)
        self.withdrawals = self.table.withdrawals

    def wake(self) -> None:
        """End the chain, restart the deadline, refuse at it, or chase."""
        server, request, table = self.server, self.request, self.table
        if (request.settled or not server.node.alive
                or server.node.epoch != self.epoch):
            return
        now = server.kernel.now
        timeout = server.lock_wait_timeout
        moved = table.blocked_on(request)
        if moved != self.blockers and table.withdrawals == self.withdrawals:
            # commits and grants moved the queue: a blocker that commits
            # closes no cycle, so the wait starts afresh
            self.deadline = now + timeout
        elif now >= self.deadline:
            server.registry.cancel_request(
                request, reason="lock wait timeout",
                error=LockTimeout(
                    f"lock {mode_label(request.mode)} on "
                    f"{request.object_uid} timed out after {timeout} "
                    f"(distributed-deadlock bound)"
                ),
            )
            return
        elif server.edge_chaser is not None:
            self.chased = server.edge_chaser.chase_from(self.waiter,
                                                        self.chased)
        self.blockers, self.withdrawals = moved, table.withdrawals
        server.kernel.schedule(min(server.probe_interval, self.deadline - now),
                               self.wake)


def until_answered(transport: RpcTransport, dst: str, kind: str,
                   payload: Dict[str, Any], trace_parent=None,
                   unsettled: Callable[[], bool] = lambda: True):
    """Call ``kind`` at ``dst`` until it answers, pausing after each call
    that fails, and return the reply — or None once ``unsettled()`` says
    the answer is no longer needed.  Every loop that must hear from one
    node (in-doubt, delegated and restart resolution) is this one."""
    while unsettled():
        try:
            return (yield from transport.call(
                dst, kind, payload, timeout=5.0, retries=1,
                trace_parent=trace_parent))
        except Exception:
            yield Timeout(5.0)


def report_acks(node: Node, obs, txn_id: str, nodes) -> None:
    """Report the participants that have ``txn_id``'s commit to the
    coordinator's table (:meth:`TxnTable.acked`) and announce the end
    their acks bring.  Every delivery of a commit reports here."""
    if node.txns.acked(txn_id, nodes):
        obs.emit("twopc.end", txn=txn_id, node=node.name)


def resolve_delegated(node: Node, transport: RpcTransport, txn_id: str,
                      last_agent: str, trace_parent=None):
    """Learn (and durably record) a delegated transaction's outcome.

    The coordinator's half of delegated recovery, for whoever needs the
    answer: the committing client whose delegated prepare lost its reply,
    a restarted coordinator node, a decision query that must not presume.
    Asks ``txn_outcome_query`` until the last agent answers; its
    answer is definitive (it force-aborts when it never saw the delegated
    prepare).  Blocking is required for truthfulness: reporting an outcome
    the delegate may contradict would split the decision.  Idempotent
    across concurrent resolvers — the second ``decide_*`` is answer-only.

    No outcome query leaves while this node's delegated prepare call is
    still live (:func:`delegating`).  Its rpc_live would name that call,
    so the last agent would still admit a retransmission of the prepare
    after a checkpoint forgot the ABORTED record the query forced.
    """
    txns = node.txns
    in_flight = node.volatile.get(_DELEGATING, {}).get(txn_id)
    if in_flight is not None:
        yield in_flight
    reply = yield from until_answered(
        transport, last_agent, "txn_outcome_query", {"txn_id": txn_id},
        trace_parent=trace_parent,
        unsettled=lambda: txns.state(COORDINATOR, txn_id)
        is TxnState.DELEGATED)
    if reply is not None:
        txns.advance(COORDINATOR, txn_id, "decide_" + reply["decision"])
    return decision_of(txns.state(COORDINATOR, txn_id))


#: node.volatile key: txn_id -> event settled when the node's delegated
#: prepare call for it ends (volatile, like the call itself)
_DELEGATING = "delegating"


def delegating(node: Node, txn_id: str, send):
    """Run ``send``, the generator that makes ``txn_id``'s delegated
    prepare call, marked in flight so that :func:`resolve_delegated` waits
    for the call to end; returns what ``send`` returns."""
    marks = node.volatile.setdefault(_DELEGATING, {})
    marks[txn_id] = ended = node.kernel.event(name=f"delegating:{txn_id}")
    try:
        return (yield from send)
    finally:
        marks.pop(txn_id, None)
        ended.trigger()

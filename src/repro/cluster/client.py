"""Client-side action coordination for the cluster.

Application code runs as simulation processes on some node and drives
actions through a :class:`ClusterClient`.  All of the cluster API is
generator-based: ``yield from client.invoke(...)`` etc.

The client holds the authoritative action tree (it created it), so all
commit routing decisions are made here, by the tree's own rule
(:meth:`repro.actions.node.ActionNode.routes`): for each colour, locks and
undo responsibility go to the closest same-coloured ancestor (a
``transfer`` route in the ``finish_commit`` message), or — when the
committing action is outermost for the colour — the colour's write set is
made permanent with a presumed-abort two-phase commit across the object
servers involved, and its locks are released.

Safety against server crashes: the epoch of every server is recorded when
an action first touches it; replies bearing a different epoch, and prepare
phases reaching a restarted server, abort the action — its volatile undo
and locks on that server died with the old epoch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.actions.node import ActionNode
from repro.actions.status import ActionStatus, Outcome
from repro.cluster.deadlock import clear_waiting, mark_waiting
from repro.cluster.message import (
    encode_action_context,
    encode_colour,
    encode_ops,
    encode_uid,
    decode_uid,
)
from repro.cluster.node import Node
from repro.cluster.server import delegating, report_acks, resolve_delegated
from repro.cluster.transport import RpcTransport
from repro.cluster.txn import COORDINATOR, PATHS, PreparePath
from repro.colours.colour import Colour
from repro.errors import (
    ActionAborted,
    ClusterError,
    CommitError,
    DeadlockDetected,
    InvalidActionState,
    LockRefused,
    LockTimeout,
    NodeDown,
    PrepareFailed,
    ReproError,
    RpcTimeout,
)
from repro.locking.modes import LockMode, Mode, companion_mode, mode_label
from repro.objects.lockable import Operation, operation_of
from repro.sim.kernel import Timeout, all_of, settle_all
from repro.structures.schemes import independent_action
from repro.util.uid import Uid, UidGenerator

PREPARE, DECIDE, COMMUTE = (
    PATHS[event] for event in ("prepare", "decide", "commute"))

#: a termination reaper's budget: redeliveries, and the pause before each
REAPER_ATTEMPTS = 30
REAPER_PAUSE = 15.0


@dataclass(frozen=True)
class ObjectRef:
    """A handle to an object hosted on some node."""

    node: str
    uid: Uid
    type_name: str


class ClusterAction(ActionNode):
    """Client-side action record: the tree node plus its involvement maps."""

    def __init__(self, uid: Uid, colours: Iterable[Colour],
                 parent: Optional["ClusterAction"], name: str, home: str):
        super().__init__(uid, colours, parent, name)
        #: node this action's client runs on (deadlock probes route here)
        self.home = home
        #: colour -> nodes where this action holds locks of that colour
        self.involved: Dict[Colour, Set[str]] = {}
        #: colour -> node -> object uids written there
        self.written: Dict[Colour, Dict[str, Set[Uid]]] = {}
        #: node -> epoch at first involvement
        self.server_epochs: Dict[str, int] = {}
        #: colour -> node -> object uid -> [(method, args)] for updates in
        #: declared-commuting operation groups: the redo log the commute
        #: path ships inside its single-round decision
        self.commute_ops: Dict[Colour, Dict[str, Dict[Uid, List[Tuple[str, list]]]]] = {}
        #: colours that picked up a non-commuting update (plain WRITE or a
        #: semantic group without a commuting declaration) — they fall back
        #: to classic/fast-path 2PC, whatever else they contain
        self.commute_blocked: Set[Colour] = set()
        #: nodes that have their finish before the end fan-out: it rode a
        #: prepare that settled them, or went first to a pure reader
        self.finished_nodes: Set[str] = set()

    def note_lock(self, colour: Colour, node: str) -> None:
        self.involved.setdefault(colour, set()).add(node)

    def note_write(self, colour: Colour, node: str, object_uid: Uid) -> None:
        self.note_lock(colour, node)
        self.written.setdefault(colour, {}).setdefault(node, set()).add(object_uid)

    def note_commute_op(self, colour: Colour, node: str, object_uid: Uid,
                        method: str, args: list) -> None:
        """Record a successfully applied commuting update for redo."""
        self.commute_ops.setdefault(colour, {}).setdefault(
            node, {}).setdefault(object_uid, []).append((method, list(args)))

    def block_commute(self, colour: Colour) -> None:
        """A non-commuting update joined the colour: classic 2PC from here."""
        self.commute_blocked.add(colour)

    def all_nodes(self) -> Set[str]:
        nodes: Set[str] = set()
        for per_colour in self.involved.values():
            nodes |= per_colour
        return nodes

    def colours_at(self, node: str) -> Set[Colour]:
        """The colours in which this action is involved at ``node``."""
        return {colour for colour, nodes in self.involved.items()
                if node in nodes}

    def check_epoch(self, node: str, epoch: int) -> None:
        recorded = self.server_epochs.setdefault(node, epoch)
        if recorded != epoch:
            raise ActionAborted(
                self.uid,
                f"server {node} restarted (epoch {recorded} -> {epoch}); "
                f"uncommitted state there was lost",
            )


@dataclass
class _Round:
    """One colour's commit round, from ``twopc.begin`` to its decision."""

    colour: Colour
    write_map: Dict[str, Set[Uid]]
    txn_id: str
    #: the fast path the writers are asked on, as events, spans and
    #: counters label it: one_phase, piggyback, commute; "" is classic
    fast_path: str = ""
    #: writer node -> the path it was asked on
    asked: Dict[str, PreparePath] = field(default_factory=dict)
    #: node -> the vote it answered / node -> why none came: the error's
    #: class, not the error, whose traceback would hold this round
    votes: Dict[str, str] = field(default_factory=dict)
    failures: Dict[str, type] = field(default_factory=dict)

    def all_yes(self) -> bool:
        """Did every writer asked so far answer its path's yes?"""
        return all(self.votes.get(node_name) == path.vote
                   for node_name, path in self.asked.items())


#: the (round, path) pairs riding one prepare message, in sub-call order
Riders = List[Tuple[_Round, PreparePath]]
#: one ``(kind, payload)`` call of a message
Call = Tuple[str, Dict[str, Any]]
#: txn_id -> node -> the call that delivers the transaction's commit there
Decided = Dict[str, Dict[str, Call]]


@dataclass
class _Plan:
    """A run of permanent colours as data: which path goes to which nodes
    in which order (built by ``_plan``, executed by ``_run_plan``)."""

    rounds: List[_Round]
    #: parents every prepare: the round's ``2pc:<colour>`` span, or the
    #: ``2pc-batched-prepare`` span several rounds share
    span: Any
    #: a node's riders travel as one ``rpc_batch`` (sub-calls in rider
    #: order), not as one plain RPC
    batched: bool
    #: the gather rule.  True: the plan's only colour is lost with the
    #: first failed prepare, so the stragglers are killed at once.  False:
    #: every node is waited for, so an all-yes *prefix* of colours commits
    fail_fast: bool
    #: node -> riders of the one joined fan-out
    wave: Dict[str, Riders] = field(default_factory=dict)
    #: the last agent, asked on the ``decide`` path once the wave said yes
    delegate: Optional[str] = None


class ClusterClient:
    """Action factory and operation API for one client process on a node."""

    def __init__(self, node: Node, transport: RpcTransport,
                 action_uids: UidGenerator, colour_allocator,
                 class_registry: Dict[str, type], observability, *,
                 name: str, fast_paths: bool, commute: bool):
        self.node = node
        #: the node's kernel — the cluster's one loop and clock — schedules
        #: the reaper spawns, commit fan-outs and abort timers
        self.kernel = node.kernel
        self.transport = transport
        self.name = name
        #: the cluster's hub: every action gets a span there (so the RPC
        #: spans have a parent to stitch to) and per-colour outcome counters
        self.obs = observability
        #: (colour, outcome) -> (rounds decided, how many the registry's
        #: last read saw), pulled by the hub's registry
        #: (:meth:`_decided_rounds`); the colour is None while the
        #: registry folds it away
        self._rounds: Dict[Tuple[Optional[str], str], Tuple[int, int]] = {}
        observability.metrics.collect(self._decided_rounds)
        #: commit-protocol fast paths (piggybacked decision, a pure
        #: reader's early finish, one-phase commit); False runs the
        #: classic protocol only
        self.fast_paths = fast_paths
        #: commutativity-based coordination avoidance: fully-commuting
        #: colours commit in one local-decision round (see _plan)
        self.commute = commute
        self._action_uids = action_uids
        self._colours = colour_allocator
        self._classes = class_registry
        self._txn_seq = itertools.count(1)
        #: node -> delegated txn_ids whose commit outcome is durably ours;
        #: acknowledged lazily by riding the next prepare to that node, so
        #: the delegate's checkpoint can drop its COMMITTED record
        self._pending_forget: Dict[str, List[str]] = {}
        # -- coordinator-side view, read by the introspection layer --------
        #: uid -> live (untermined) ClusterAction; the client half of the
        #: "no txn a server thinks is in-flight that the client thinks is
        #: finished" cross-check
        self.live_actions: Dict[Uid, ClusterAction] = {}
        #: node -> termination reapers currently retrying against it
        self.reaper_backlog: Dict[str, int] = {}
        # what this client was driving died with its node: the log and the
        # servers' recovery settle the rest (reapers count their own backlog)
        node.add_recovery_hook(self.live_actions.clear)

    def _op_span(self, action: "ClusterAction", name: str, **attrs):
        """A client-side span parented on the action's span."""
        return self.obs.span(name, parent=action._obs_span,
                             kind="client", node=self.node.name, **attrs)

    @staticmethod
    def _failure_cause(error: BaseException) -> str:
        """Postmortem taxonomy bucket for an operation failure (see
        ``repro.obs.postmortem``): why did this call against an action
        fail?"""
        if isinstance(error, DeadlockDetected):
            return "deadlock-victim"
        if isinstance(error, (LockTimeout, LockRefused)):
            return "lock-conflict"
        if isinstance(error, ActionAborted):
            if "restarted (epoch" in str(error):
                return "server-restart"
            return "action-aborted"
        if isinstance(error, RpcTimeout):
            return "rpc-timeout"
        if isinstance(error, NodeDown):
            return "node-down"
        if isinstance(error, CommitError):
            return "commit-failed"
        return "app-error"

    @staticmethod
    def _abort_cause(round_: _Round) -> str:
        """Why a round that was not all yes aborts: a real no-vote, a
        refusal, or silence?  One taxonomy for every plan shape
        (docs/PROTOCOL.md §3.1)."""
        asked = round_.asked.items()
        if any(round_.votes.get(node_name, path.vote) != path.vote
               for node_name, path in asked):
            return "vote-rollback"
        path, failure = next(
            ((path, round_.failures[node_name]) for node_name, path in asked
             if node_name in round_.failures), (PREPARE, BaseException))
        if path.takes_decision:  # the delegate, resolved to abort
            return "fast-path-downgrade"
        if issubclass(failure, PrepareFailed):
            return "prepare-refused"
        if issubclass(failure, ActionAborted):
            return "action-aborted"
        return "participant-unreachable"  # RpcTimeout, NodeDown, the rest

    def _note_failure(self, action: ClusterAction, error: BaseException,
                      op: str, dst: str = "", object_uid: Any = "",
                      colour: Optional[Colour] = None) -> None:
        """Publish an ``action.failure`` event: the causal record the
        postmortem engine attributes aborts from."""
        self.obs.emit(
            "action.failure", action=str(action.uid), op=op,
            cause=self._failure_cause(error),
            error=type(error).__name__, detail=str(error),
            dst=dst, object=str(object_uid) if object_uid else "",
            colour=str(colour) if colour is not None else "",
            node=self.node.name,
        )

    def _terminated(self, action: ClusterAction, status: ActionStatus,
                    outcome: Outcome) -> Outcome:
        """Seal a finished action: status, tree unlink, the hub told."""
        action.seal(status)
        self.live_actions.pop(action.uid, None)
        self.obs.action_ended(action, self.node.name)
        return outcome

    # -- action factories -----------------------------------------------------

    def coloured(self, colours: Iterable[Colour],
                 parent: Optional[ClusterAction] = None,
                 name: str = "") -> ClusterAction:
        """A new action with an explicit colour set; raises
        :class:`InvalidActionState` under a parent that is not ACTIVE."""
        action = ClusterAction(self._action_uids.fresh(), colours, parent,
                               name, home=self.node.name)
        self.live_actions[action.uid] = action
        self.obs.action_begun(action, self.node.name)
        return action

    #: with :meth:`fresh_colour`, the factory every structure is built from
    #: (:mod:`repro.structures.schemes`), under ``LocalRuntime``'s name for it
    new_action = coloured

    def top_level(self, name: str = "") -> ClusterAction:
        return self.coloured(
            [self._colours.fresh(f"{name or 'top'}.colour")], None, name)

    def atomic(self, parent: ClusterAction, name: str = "") -> ClusterAction:
        return self.coloured(parent.colours, parent, name)

    def independent_top_level(self, parent: ClusterAction,
                              name: str = "independent") -> ClusterAction:
        return independent_action(self, parent, name)

    def fresh_colour(self, name: str = "") -> Colour:
        return self._colours.fresh(name)

    # -- object operations (generators) ------------------------------------------

    def create(self, node_name: str, type_name: str, *args: Any,
               **kwargs: Any):
        """Create an object on a node (non-transactional); returns ObjectRef."""
        reply = yield from self.transport.call(node_name, "create", {
            "type_name": type_name, "args": list(args), "kwargs": kwargs,
        })
        return ObjectRef(node_name, decode_uid(reply["object_uid"]), type_name)

    def invoke(self, action: ClusterAction, ref: ObjectRef, method: str,
               *args: Any, colour: Optional[Colour] = None):
        """Run an @operation on a remote object within ``action``."""
        action.require(ActionStatus.ACTIVE)
        chosen = action.lock_colour(colour)
        action.require_colour(chosen)
        declared = self.operation(ref.type_name, method)
        reply = yield from self._locking_call(
            action, ref, chosen, "invoke", f"invoke:{method}",
            method=method, args=list(args))
        if declared.mode is LockMode.WRITE or declared.inverse is not None:
            action.note_write(chosen, ref.node, ref.uid)
            spec = getattr(self._classes[ref.type_name], "SEMANTICS", None)
            if (declared.inverse is not None and spec is not None
                    and spec.is_commuting(declared.mode)):
                # applied and totally ordered-free: remember the op so the
                # commute path can redo it against committed state
                action.note_commute_op(chosen, ref.node, ref.uid,
                                       method, list(args))
            else:
                action.block_commute(chosen)
        if action.companion_colour is not None and action.companion_colour != chosen:
            yield from self.lock(action, ref, companion_mode(declared.mode),
                                 colour=action.companion_colour)
        return reply["result"]

    def lock(self, action: ClusterAction, ref: ObjectRef, mode: Mode,
             colour: Optional[Colour] = None):
        """Explicitly lock a remote object (hand-over pins etc.).

        ``mode`` is a :class:`LockMode` for ordinary objects or an
        operation-group name (str) for semantic objects.
        """
        action.require(ActionStatus.ACTIVE)
        chosen = action.lock_colour(colour)
        action.require_colour(chosen)
        label = mode_label(mode)
        yield from self._locking_call(
            action, ref, chosen, "lock", f"lock:{label}", mode=label)
        if mode is LockMode.WRITE:
            action.note_write(chosen, ref.node, ref.uid)
            # an explicit WRITE pin has no redo operation: classic 2PC
            action.block_commute(chosen)
        return True

    def _locking_call(self, action: ClusterAction, ref: ObjectRef,
                      colour: Colour, kind: str, op: str, **request: Any):
        """One lock-taking RPC (``invoke``, ``lock``) against ``ref`` for
        ``action``; returns the reply once the lock is noted and the
        server's epoch checked.

        ``op`` names the call in its span and in ``action.failure``.  A
        failure that leaves the server's state unknown (timeout, the action
        found aborted, the server restarted under it) aborts the action;
        server-reported failures (lock refusals, deadlock victims, app
        exceptions) propagate to the caller without auto-abort — either way
        the cause is recorded so the eventual abort is attributable.
        """
        span = self._op_span(action, op, dst=ref.node, object=str(ref.uid),
                             colour=str(colour))
        mark_waiting(self.node, action.uid, ref.node)
        try:
            reply = yield from self.transport.call(ref.node, kind, {
                "action": encode_action_context(action),
                "object_uid": encode_uid(ref.uid),
                **request,
                "colour": encode_colour(colour),
            }, trace_parent=span)
        except Exception as error:
            self._note_failure(action, error, op=op, dst=ref.node,
                               object_uid=ref.uid, colour=colour)
            if isinstance(error, RpcTimeout):
                # outcome unknown: the server may have run it (every reply
                # lost), so the abort must reach that node as well
                action.note_lock(colour, ref.node)
            if isinstance(error, (RpcTimeout, ActionAborted)):
                yield from self.abort(action)
            raise
        finally:
            clear_waiting(self.node, action.uid)
            span.finish()
        action.note_lock(colour, ref.node)
        try:
            action.check_epoch(ref.node, reply["epoch"])
        except ActionAborted as error:
            # the grant just received is on the new epoch — the abort
            # reaches it, the node being noted above
            self._note_failure(action, error, op=op, dst=ref.node,
                               object_uid=ref.uid, colour=colour)
            yield from self.abort(action)
            raise
        return reply

    # -- termination ---------------------------------------------------------------

    def commit(self, action: ClusterAction):
        """Commit: per-colour 2PC or transfer, then one batched finish per
        server.

        The permanent colours are planned in runs (:meth:`_plan`): a
        commuting colour is a decision-first round of its own, a single
        classic colour runs the fast or classic prepare round, and a
        maximal run of classic colours shares one *batched* prepare
        fan-out — per server, every colour's ``txn_prepare`` rides in one
        ``call_many`` message.  One driver (:meth:`_run_plan`) executes
        every plan, before the decision broadcasts and the finish/transfer
        routing are merged into a single parallel fan-out, one network
        message per involved server.  With fast paths, a pure reader
        (:meth:`_pure_readers`) gets its finish in front of the first
        prepares instead, gating nothing.  A failed run ends in the
        abort's one fan-out instead, which carries the same decision
        broadcasts and the failed round's ``txn_abort`` ahead of
        ``abort_action``.
        Termination cost is thus bounded by the slowest server, not the
        sum over colours or servers (see :meth:`_fan_out`).
        """
        action.require(ActionStatus.ACTIVE)
        yield from self._abort_dependants(action)
        action.status = ActionStatus.COMMITTING
        started = self.kernel.now
        span = self._op_span(action, "commit")
        routes = action.routes()
        #: the commit decisions logged, in colour order, and their delivery
        decided: Decided = {}
        #: colours this action is outermost for, with pending writes
        permanent: List[Tuple[Colour, Dict[str, Set[Uid]]]] = []
        for colour, destination in routes:
            self.obs.commit_routed(action, colour, destination,
                                   self.node.name)
            if destination is not None:
                self._bequeath(action, colour, destination)
            elif action.written.get(colour):
                permanent.append((colour, action.written[colour]))
        finish: Call = ("finish_commit", {
            "action_uid": encode_uid(action.uid),
            "routes": [{"colour": encode_colour(colour),
                        "dest": (encode_action_context(dest)
                                 if dest is not None else None)}
                       for colour, dest in routes],
        })
        readers = (self._pure_readers(action, routes)
                   if self.fast_paths and permanent else [])
        if readers:
            self._spawn_each(f"finish:{action.uid}", {
                node_name: self._finish_reader(action, node_name, finish,
                                               span)
                for node_name in readers})
        failed_colour, undo = None, {}

        def run_key(item):
            # a commuting colour is a guaranteed-commit round of its own;
            # a maximal run of classic colours shares one prepare fan-out,
            # preserving colour-order failure semantics
            return item[0] if self._commute_eligible(action, *item) else None

        for commuting, run in itertools.groupby(permanent, key=run_key):
            failed_colour, undo = yield from self._run_plan(
                action, self._plan(action, list(run), commuting is not None,
                                   span), decided)
            if failed_colour is not None:
                break
        if failed_colour is not None:
            action.status = ActionStatus.ACTIVE  # let abort run normally
            span.set(outcome="2pc-failed").finish()
            self._note_failure(
                action,
                CommitError(f"two-phase commit of colour {failed_colour} "
                            f"failed"),
                op="commit", colour=failed_colour)
            # per-colour permanence: the colours decided before the failing
            # one survive the abort, their commits riding in front of it
            yield from self._abort(action, decided, undo)
            raise CommitError(
                f"{action.name}: two-phase commit of colour "
                f"{failed_colour} failed"
            )
        if readers:
            # Zero-time barrier: a reader's reply may land at the instant
            # the last prepare reply did, but later in the event queue;
            # draining it lets the end fan-out leave that reader out.
            # Costs no simulated time and never waits for a slow reader.
            yield Timeout(0.0)
        yield from self._finish_commit(action, finish, decided,
                                       parent_span=span)
        span.set(outcome="committed").finish()
        # per-colour commit latency: the whole termination protocol
        # (prepare rounds + decision/finish fan-out) as one histogram
        # observation — what the commit-latency SLO watches
        for colour in action.colours:
            self.obs.observe("commit_latency", self.kernel.now - started,
                             colour=str(colour), node=self.node.name)
        return self._terminated(action, ActionStatus.COMMITTED,
                                Outcome.COMMITTED)

    def abort(self, action: ClusterAction):
        """Abort: undo and release on every involved server."""
        return (yield from self._abort(action, {}, {}))

    def _abort(self, action: ClusterAction, decided: Decided,
               undo: Dict[str, List[Call]]):
        """End ``action`` in one fan-out: each involved server gets the
        commits of ``decided`` it is owed, its ``undo`` calls (a failed
        round's ``txn_abort``) and ``abort_action``, in that order."""
        if action.status is ActionStatus.ABORTED:
            return Outcome.ABORTED
        if action.status is ActionStatus.COMMITTED:
            raise InvalidActionState(f"{action.name} already committed")
        action.status = ActionStatus.ABORTING
        yield from self._abort_dependants(action)
        span = self._op_span(action, "abort")
        payload = {"action_uid": encode_uid(action.uid)}
        calls_for = {node_name: undo.get(node_name, [])
                     + [("abort_action", payload)]
                     for node_name in action.all_nodes()}
        # A server that does not answer is either down (its volatile locks
        # died with it) or a *live* one we are partitioned from that still
        # holds the action's locks: the fan-out's reaper keeps retrying
        # until the abort lands — every call in it is idempotent, so
        # over-delivery is harmless.
        yield from self._fan_out(f"abort:{action.uid}", calls_for, decided,
                                 span=span, batched=False)
        span.set(outcome="aborted").finish()
        return self._terminated(action, ActionStatus.ABORTED, Outcome.ABORTED)

    def _spawn_each(self, label: str, bodies: Dict[str, Any]) -> List[Any]:
        """One process per node, started in the order given."""
        return [self.kernel.spawn(body, name=f"{label}@{node_name}")
                for node_name, body in bodies.items()]

    def _deliver(self, node_name: str, calls: List[Call], batched: bool,
                 span=None, retries: Optional[int] = None):
        """One network message to one node; returns ``(ok, value)`` per
        call.  ``batched`` ships the calls as one ``rpc_batch`` (dispatched
        in order), as does more than one call; otherwise the node gets its
        single call as a plain RPC, whose error reply raises.  ``retries``
        is the transport's retransmission budget (its default if None)."""
        if batched or len(calls) > 1:
            return (yield from self.transport.call_many(
                node_name, calls, retries=retries, trace_parent=span))
        (kind, payload), = calls
        return [(True, (yield from self.transport.call(
            node_name, kind, payload, retries=retries, trace_parent=span)))]

    def _fan_out(self, label: str, calls_for: Dict[str, List[Call]],
                 decided: Decided, span=None, batched: bool = True):
        """Deliver each node's termination calls in parallel: one process
        and one network message per node, so the round costs the slowest
        server, not the sum.

        A node's message carries, in front of its own calls and in colour
        order, the call that delivers each ``decided`` transaction the
        table still owes it (``TxnTable.owed``): a classic round's
        ``txn_commit``, a commute round's own prepare (its redo).  The
        server dispatches sub-calls in order, so promotion and redo
        precede lock release and undo there.
        Every node that did not answer every call gets a background reaper
        redelivering the same calls — termination calls are all idempotent
        server-side.  The nodes that did are acks of each ``decided``
        commit, reported in that order.  ``batched`` is part of the wire,
        not a caller's preference: the finish's list travels as
        ``rpc_batch`` even when it is one call, an abort that is
        ``abort_action`` alone as a plain RPC, and every gated message
        count pins that.
        """
        owed = self.node.txns.owed
        calls_for = {node_name: [
            delivery[node_name] for txn_id, delivery in decided.items()
            if node_name in owed.get(txn_id, ())] + calls
            for node_name, calls in calls_for.items()}
        nodes = sorted(calls_for)

        def deliver(node_name: str):
            for ok, value in (yield from self._deliver(
                    node_name, calls_for[node_name], batched, span)):
                if not ok:
                    raise value

        handles = self._spawn_each(label, {n: deliver(n) for n in nodes})
        outcomes = yield settle_all(self.kernel, [h.join() for h in handles])
        acked = {node_name for node_name, (ok, _) in zip(nodes, outcomes) if ok}
        for node_name in nodes:
            if node_name not in acked:
                self._spawn_reaper(node_name, calls_for[node_name], label)
        for txn_id in decided:
            report_acks(self.node, self.obs, txn_id, acked)

    def _spawn_reaper(self, node_name: str, calls, label: str) -> None:
        """Keep delivering, in the background, termination calls a
        partition or crash swallowed.

        ``calls`` is a ``(kind, payload)`` batch — an abort's or a
        finish's list, owed commits in front (see :meth:`_fan_out`) —
        every call of which is idempotent server-side, so
        retrying under fresh rpc ids until the batch lands (or the budget
        runs out: a crashed server's volatile locks died with it, and its
        log-driven recovery resolves the rest) is safe.  A batch that lands acks each of its
        transactions for the node, as every delivery of a commit does.
        """
        def reap():
            # backlog bookkeeping brackets the reaper's whole life so the
            # introspection layer can report how many terminations are
            # still being chased per node (kill/crash included: the
            # generator's close() runs the finally block)
            self.reaper_backlog[node_name] = (
                self.reaper_backlog.get(node_name, 0) + 1)
            try:
                for _attempt in range(REAPER_ATTEMPTS):
                    yield Timeout(REAPER_PAUSE)
                    try:
                        outcomes = yield from self.transport.call_many(
                            node_name, calls, timeout=5.0, retries=1)
                    except RpcTimeout:
                        continue
                    if all(ok for ok, _ in outcomes):
                        for _kind, payload in calls:
                            if "txn_id" in payload:
                                report_acks(self.node, self.obs,
                                      payload["txn_id"], (node_name,))
                        return True
                return False
            finally:
                remaining = self.reaper_backlog.get(node_name, 1) - 1
                if remaining > 0:
                    self.reaper_backlog[node_name] = remaining
                else:
                    self.reaper_backlog.pop(node_name, None)

        self.kernel.spawn(reap(), name=f"reap-{label}@{node_name}")
        self.obs.count("termination_reapers_total", node=node_name)

    def run_scope(self, action: ClusterAction, body):
        """Run ``body`` (a generator taking nothing) under ``action``.

        Clean return commits and yields the body's value; an exception
        aborts and re-raises — the generator analogue of ActionScope.
        """
        try:
            result = yield from body
        except BaseException:
            if not action.status.terminated:
                yield from self.abort(action)
            raise
        if not action.status.terminated:
            yield from self.commit(action)
        return result

    # -- internals ------------------------------------------------------------------------

    def operation(self, type_name: str, method: str) -> Operation:
        """What ``type_name.method`` declares: lock mode or group, hooks."""
        cls = self._classes.get(type_name)
        if cls is None:
            raise ClusterError(f"unknown type {type_name!r}")
        declared = operation_of(cls, method)
        if declared is None:
            raise ClusterError(f"{type_name}.{method} is not an operation")
        return declared

    def _abort_dependants(self, action: ClusterAction):
        """§3.3 before ``action`` ends: abort the children bound to it
        (independent ones are detached by the tree itself)."""
        for child in action.dependants():
            # the child dies because its parent settled, not through any
            # conflict of its own
            self.obs.emit("action.failure", action=str(child.uid),
                          op="settle", cause="parent-settled",
                          detail=str(action.uid), node=self.node.name)
            yield from self.abort(child)

    def _bequeath(self, action: ClusterAction, colour: Colour,
                  destination: ClusterAction) -> None:
        """Client-side bookkeeping move; the servers move the real records
        on finish_commit."""
        destination.involved.setdefault(colour, set()).update(
            action.involved.get(colour, set())
        )
        dest_written = destination.written.setdefault(colour, {})
        for node_name, uids in action.written.get(colour, {}).items():
            dest_written.setdefault(node_name, set()).update(uids)
        if colour in action.commute_blocked:
            destination.commute_blocked.add(colour)
        for node_name, per_object in action.commute_ops.get(colour, {}).items():
            dest_ops = destination.commute_ops.setdefault(
                colour, {}).setdefault(node_name, {})
            for object_uid, ops in per_object.items():
                dest_ops.setdefault(object_uid, []).extend(ops)
        for node_name, epoch in action.server_epochs.items():
            destination.server_epochs.setdefault(node_name, epoch)

    def _finish_commit(self, action: ClusterAction, finish: Call,
                       decided: Decided, parent_span=None):
        """Deliver every commit decision and the ``finish`` routing in
        one parallel fan-out: a single batched message per involved server,
        its owed ``txn_commit`` sub-calls before ``finish_commit``
        (:meth:`_fan_out`).  The acks go back to the table: a transaction
        ends once nobody is owed it, here or when a reaper lands the
        batch of a server that could not be reached.

        A server that has its finish already (``action.finished_nodes``:
        it rode a prepare that settled the node, or went first to a pure
        reader) is left out; it is owed no decided commit either.
        """
        calls_for = {node_name: [finish]
                     for node_name in sorted(action.all_nodes())
                     if node_name not in action.finished_nodes}
        started = self.kernel.now
        yield from self._fan_out(f"finish:{action.uid}", calls_for, decided,
                                 span=parent_span)
        if calls_for:
            self.obs.observe("commit_fanout_time",
                             self.kernel.now - started, width=len(calls_for))

    @staticmethod
    def _pure_readers(action: ClusterAction,
                      routes: List[Tuple[Colour, Optional[ActionNode]]]
                      ) -> List[str]:
        """The nodes with nothing to make permanent: every colour the
        action holds there ends at this commit (its route has no
        destination), and it wrote nothing there."""
        inherited = {colour for colour, dest in routes if dest is not None}
        writers = {node_name for per_node in action.written.values()
                   for node_name in per_node}
        return [node_name for node_name in sorted(action.all_nodes())
                if node_name not in writers
                and not action.colours_at(node_name) & inherited]

    def _finish_reader(self, action: ClusterAction, node_name: str,
                       finish: Call, span):
        """A pure reader's finish, sent in front of the first prepares.

        It gates nothing: the outermost colours' locks go at commit
        anyway, and a reader has no write to make permanent.  A reader
        that answers is finished; one that does not stays in the end
        fan-out, which sends it the same call."""
        try:
            (ok, _value), = yield from self._deliver(node_name, [finish],
                                                     True, span)
        except ReproError:
            return
        if ok:
            action.finished_nodes.add(node_name)

    # -- the commit round (coordinator) ----------------------------------------------------------

    def _commute_eligible(self, action: ClusterAction, colour: Colour,
                          write_map: Dict[str, Set[Uid]]) -> bool:
        """May this colour commit on the commute path?

        Yes iff commute is enabled, no non-commuting update ever joined the
        colour, and every written object has a recorded redo op list — the
        moment a plain WRITE or an undeclared semantic update touches the
        colour it is blocked and falls back to classic/fast-path 2PC.
        """
        if not self.commute or colour in action.commute_blocked:
            return False
        ops = action.commute_ops.get(colour)
        if not ops:
            return False
        for node_name, uids in write_map.items():
            node_ops = ops.get(node_name, {})
            if any(uid not in node_ops for uid in uids):
                return False
        return True

    def _plan(self, action: ClusterAction,
              run: List[Tuple[Colour, Dict[str, Set[Uid]]]],
              commuting: bool, parent_span=None) -> _Plan:
        """Open the rounds of a run of permanent colours (txn id,
        ``twopc.begin``) and say which prepare path (``txn.PATHS``) goes to
        which nodes in which order.

        - *Commuting colour* (§2 pushed into the commit protocol): every
          update is total and order-independent, so every vote is
          guaranteed-yes and nothing gates: ``commute`` to the writers,
          carrying the decision, the redo list and the finish routing.
        - *Single classic colour*: ``prepare`` to the writers, first
          failure fatal.  With fast paths the last (sorted) writer is held
          back as the delegate — the R* last-agent / piggybacked decision;
          with a single writer that collapses to a one-phase commit.
        - *Run of classic colours*: sequentially, k colours cost k prepare
          rounds.  Here the (colour, writer) pairs are regrouped per server
          into one batch each.  No delegate: colour-order failure semantics
          need every colour's votes in hand before any decision is taken.
        """
        batched = len(run) > 1
        plan = _Plan([], None, batched, fail_fast=not (batched or commuting))
        if batched:
            plan.span = self.obs.span(
                "2pc-batched-prepare", parent=parent_span, kind="client",
                node=self.node.name, colours=len(run))
        for colour, write_map in run:
            writers = sorted(write_map)
            round_ = _Round(colour, write_map, (
                f"txn:{self.node.name}:{action.uid.sequence}:"
                f"{colour.uid.sequence}:{next(self._txn_seq)}"))
            plan.rounds.append(round_)
            if not batched:
                plan.span = self.obs.span(
                    f"2pc:{colour}", parent=parent_span, kind="client",
                    node=self.node.name, txn=round_.txn_id,
                    participants=len(writers))
            self.obs.emit("twopc.begin", txn=round_.txn_id,
                          action=str(action.uid), colour=str(colour),
                          participants=",".join(writers),
                          node=self.node.name)
            path = PREPARE
            if commuting:
                path, round_.fast_path = COMMUTE, "commute"
            elif self.fast_paths and not batched:
                round_.fast_path = ("one_phase" if len(writers) == 1
                                    else "piggyback")
                plan.delegate = writers.pop()
            for node_name in writers:
                round_.asked[node_name] = path
                plan.wave.setdefault(node_name, []).append((round_, path))
        return plan

    def _run_plan(self, action: ClusterAction, plan: _Plan,
                  decided: Decided):
        """Execute a plan: the one coordinator round.

        Sends the wave — one process and one message per node — gathers
        it by the plan's rule, lets the
        delegate decide if there is one, and takes the coordinator edges
        in colour order: the first colour that is not all yes aborts, and
        so does every *later* one (sequential rounds would never have
        decided them).  A plan whose paths gate nothing is decided
        *before* its fan-out instead, its wave is sent once (a node still
        silent after one timeout is owed the prepare in its end message),
        and its replies are the acknowledgements.

        Enters each committed round in ``decided``, with the call by which
        the caller's end fan-out delivers the commit to a participant
        still owed it: ``txn_commit``, or the wave's own prepare when the
        round was decided before its wave.  Returns the colour that
        failed, if any, and per node the ``txn_abort`` calls that the
        caller's abort fan-out delivers (presumed abort).
        """
        rounds = plan.rounds
        awaited = plan.delegate is not None or any(
            path.gates for round_ in rounds for path in round_.asked.values())
        if not awaited:
            # decision first: with guaranteed-yes votes there is nothing to
            # wait for, and a durable decision lets an unreachable
            # participant be converged later by redelivery instead of
            # presumed abort
            for round_ in rounds:
                self._decide(round_, "commit")
        calls_for = {node_name: self._prepare_calls(action, node_name,
                                                    plan.wave[node_name])
                     for node_name in sorted(plan.wave)}
        # regrouped prepares are round trips saved over sequential rounds
        saved = sum(len(riders) - 1 for riders in plan.wave.values())
        if saved:
            self.obs.count("prepare_batch_saved_rpcs_total", saved)
        # retransmitting an unawaited wave would only delay the next round
        retries = None if awaited else 0
        started = self.kernel.now
        handles = self._spawn_each(f"prepare:{action.uid}", {
            node_name: self._send(action, plan, node_name,
                                  plan.wave[node_name], calls, retries)
            for node_name, calls in calls_for.items()})
        joins = [handle.join() for handle in handles]
        if plan.fail_fast:
            try:
                yield all_of(self.kernel, joins)
            except ReproError:
                # Cancel prepares still in flight *before* announcing the
                # abort: a killed task's transport cleanup runs immediately
                # (finally blocks), and any prepare already on the wire
                # races the txn_abort — the server resolves that race by
                # treating a prepare for an already-aborted txn_id as a
                # rollback vote (presumed abort), so no straggler can park
                # itself in-doubt.
                for handle in handles:
                    handle.kill()
        else:
            yield settle_all(self.kernel, joins)
        for handle in handles:
            if handle.error is not None:
                # filed in its round already: the traceback would hold the
                # prepare's frames, and through them this plan, in a cycle
                handle.error.__traceback__ = None
        if plan.delegate is not None and rounds[0].all_yes():
            yield from self._delegate(action, plan)
        failed: Optional[_Round] = None
        abort_calls: Dict[str, List[Call]] = {}
        for round_ in rounds:
            # coordinator-observed latency of the whole prepare round
            self.obs.observe("twopc_prepare_time", self.kernel.now - started,
                             colour=str(round_.colour))
            if not awaited:
                # the answers are acks; a silent node is owed the wave's
                # own prepare (one per node: the colour is a round of its
                # own), at the front of its end message
                silent = [node_name for node_name, path in round_.asked.items()
                          if round_.votes.get(node_name) != path.vote]
                for node_name in silent:
                    self.obs.emit("twopc.downgrade", txn=round_.txn_id,
                                  node=self.node.name, dst=node_name,
                                  reason="commute-unreachable",
                                  resolution="redelivery")
                report_acks(self.node, self.obs, round_.txn_id,
                            set(round_.asked).difference(silent))
                decided[round_.txn_id] = {node_name: calls_for[node_name][0]
                                          for node_name in silent}
            elif failed is None and round_.all_yes():
                # the caller's end fan-out delivers the commit to the
                # participants owed it
                self._decide(round_, "commit")
                decided[round_.txn_id] = dict.fromkeys(
                    round_.asked, ("txn_commit", {"txn_id": round_.txn_id}))
            else:
                cause = ("colour-order-cascade" if failed is not None
                         else self._abort_cause(round_))
                failed = failed or round_
                self._decide(round_, "abort", cause=cause)
                # whoever may hold a PREPARED record: a delegate took the
                # decision itself, or never saw its prepare, or refused it
                for node_name, path in round_.asked.items():
                    if not path.takes_decision:
                        abort_calls.setdefault(node_name, []).append(
                            ("txn_abort", {"txn_id": round_.txn_id}))
        if failed is not None:
            plan.span.set(outcome="aborted").finish()
            return failed.colour, abort_calls
        if plan.delegate is not None:
            self.obs.count("decision_piggyback_saved_rpcs_total",
                           1 + (plan.delegate in action.finished_nodes))
        if rounds[0].fast_path:  # batched rounds have none
            plan.span.set(fast_path=rounds[0].fast_path)
        plan.span.set(outcome="committed").finish()
        return None, {}

    def _decide(self, round_: _Round, decision: str, **labels: str) -> None:
        """Take the coordinator's ``decide_commit``/``decide_abort`` edge
        and account for it.

        A commit is logged before any participant is told, with the
        participants it owes (``owed``) — on the delegation's record
        instead when the round delegated.  An abort needs no record
        (presumed abort) unless it undoes a delegation; a decision the
        delegated-outcome resolver already recorded is answer-only.  A
        commit the delegate took is not announced again: its decision
        event came from there, labelled with its fast path.
        """
        commute = COMMUTE in round_.asked.values()
        delegated = DECIDE in round_.asked.values()
        self.node.txns.advance(
            COORDINATOR, round_.txn_id, f"decide_{decision}",
            **({"commute": True} if commute else {}),
            **({} if delegated or decision == "abort"
               else {"owed": sorted(round_.asked)}))
        key = (None if "colour" in self.obs.metrics.folded_labels
               else str(round_.colour),
               "committed" if decision == "commit" else "aborted")
        count, read = self._rounds.get(key, (0, 0))
        self._rounds[key] = (count + 1, read)
        if decision == "commit" and delegated:
            return
        self.obs.emit("twopc.decision", txn=round_.txn_id,
                      decision=decision, node=self.node.name,
                      **({"commute": "1"} if commute else {}), **labels)

    def _decided_rounds(self):
        """The round tallies as ``twopc_rounds_total{colour, outcome}``
        rows and, for a commit, ``colour_permanent_total{colour}``, which
        states the same fact (a registry collector).  A row the last read
        saw at its current total goes (a colour's, once it is decided)."""
        rounds = self._rounds
        for key, (count, read) in list(rounds.items()):
            if count == read:
                del rounds[key]
                continue
            rounds[key] = (count, count)
            colour, outcome = key
            labels = {} if colour is None else {"colour": colour}
            yield "twopc_rounds_total", {**labels, "outcome": outcome}, count
            if outcome == "committed":
                yield "colour_permanent_total", labels, count

    def _prepare_calls(self, action: ClusterAction, node_name: str,
                       riders: Riders) -> List[Call]:
        """The calls of one prepare message to ``node_name``: per rider the
        classic payload plus what its path adds.  Pending lazy
        acknowledgements of earlier delegated commits to the node ride on
        the first call (once per message is enough)."""
        calls: List[Call] = []
        for round_, path in riders:
            colour = round_.colour
            uids = sorted(round_.write_map.get(node_name, ()))
            payload = {
                "txn_id": round_.txn_id,
                "action_uid": encode_uid(action.uid),
                "colour": encode_colour(colour),
                "object_uids": [encode_uid(uid) for uid in uids],
                "expected_epoch": action.server_epochs.get(node_name),
            }
            pending = self._pending_forget.get(node_name)
            if pending and not calls:
                payload["forget"] = list(pending)
            if path.flag:
                payload[path.flag] = True
            if path is DECIDE:
                payload["fast_path"] = round_.fast_path
            if path is COMMUTE:
                # what keeps a decision taken before the votes honest
                # across failures: a participant that restarted (losing its
                # volatile effects) re-applies the operations from the
                # message against its committed state — with the full
                # action context (not just the uid), to rebuild the mirror
                # that holds the redo's group locks
                ops_for = action.commute_ops[colour][node_name]
                payload["action"] = encode_action_context(action)
                payload["ops"] = encode_ops({uid: ops_for[uid]
                                             for uid in uids})
            if (path.takes_decision
                    and action.colours_at(node_name) == {colour}):
                # the node's entire involvement commits right here: ship
                # its (trivial) finish routing inside the same message
                payload["finish"] = [{"colour": encode_colour(colour),
                                      "dest": None}]
            calls.append(("txn_prepare", payload))
        return calls

    def _send(self, action: ClusterAction, plan: _Plan, node_name: str,
              riders: Riders, calls: List[Call],
              retries: Optional[int] = None):
        """Put one prepare message on the wire and file what comes back:
        each rider's vote by its path's row, or why there is none."""
        try:
            outcomes = yield from self._deliver(node_name, calls,
                                                plan.batched, plan.span,
                                                retries)
        except ReproError as error:
            for round_, _path in riders:
                round_.failures[node_name] = type(error)
            raise
        sent = calls[0][1].get("forget")
        if sent:  # answered: stop resending these lazy acknowledgements
            self._pending_forget[node_name] = [
                txn_id for txn_id in self._pending_forget[node_name]
                if txn_id not in sent]
        for (round_, path), (ok, reply) in zip(riders, outcomes):
            if ok:
                self._file_vote(action, round_, path, node_name, reply)
            else:
                round_.failures[node_name] = type(reply)

    def _file_vote(self, action: ClusterAction, round_: _Round,
                   path: PreparePath, node_name: str,
                   reply: Dict[str, Any]) -> None:
        """File one prepare reply by its path's row (``txn.PATHS``)."""
        vote = round_.votes[node_name] = reply.get("vote")
        if vote != path.vote:
            return
        if path.takes_decision:
            # the participant's COMMITTED record is acknowledged lazily,
            # riding our next prepare to it, so its checkpoint can drop it
            self._pending_forget.setdefault(node_name, []).append(
                round_.txn_id)
        if reply.get("finished"):
            action.finished_nodes.add(node_name)

    def _delegate(self, action: ClusterAction, plan: _Plan):
        """Delegate the decision to the last agent: its prepare both asks
        for and *carries* the decision (every earlier vote was yes, so a
        yes there decides the transaction), and the finish routing too
        when the colour is that node's entire involvement.

        The delegation is logged first — if we crash or lose the reply,
        the outcome is recoverable from the named last agent.  The call
        is marked in flight (``delegating``): a decision query that needs
        the outcome meanwhile waits for it to end.
        """
        (round_,), node_name = plan.rounds, plan.delegate
        self.node.txns.advance(COORDINATOR, round_.txn_id, "delegate",
                               last_agent=node_name,
                               owed=sorted(round_.asked))
        round_.asked[node_name] = DECIDE
        riders = [(round_, DECIDE)]
        calls = self._prepare_calls(action, node_name, riders)
        try:
            yield from delegating(self.node, round_.txn_id, self._send(
                action, plan, node_name, riders, calls))
        except ReproError:
            # The decision may or may not have landed — and not only on a
            # timeout: an error reply can come from a *retransmission*
            # after the first copy committed and the delegate crashed (the
            # retry then hits the bumped epoch).  Never presume rollback
            # past this point; resolve through the last agent, whose
            # answer is definitive.
            decision = yield from resolve_delegated(
                self.node, self.transport, round_.txn_id, node_name,
                trace_parent=plan.span)
            # the fast path degenerated into an outcome query loop
            self.obs.emit("twopc.downgrade", txn=round_.txn_id,
                          node=self.node.name, dst=node_name,
                          reason="delegated-reply-lost",
                          resolution=decision)
            if decision == "commit":
                # a committed outcome proves the prepare arrived whole —
                # the piggybacked finish (if any) was applied with it
                self._file_vote(action, round_, DECIDE, node_name, {
                    "vote": DECIDE.vote,
                    "finished": "finish" in calls[0][1]})

"""Client-side action coordination for the cluster.

Application code runs as simulation processes on some node and drives
actions through a :class:`ClusterClient`.  All of the cluster API is
generator-based: ``yield from client.invoke(...)`` etc.

The client holds the authoritative action tree (it created it), so all
commit routing decisions are made here, mirroring
:meth:`repro.actions.action.Action.commit`: for each colour, locks and undo
responsibility go to the closest same-coloured ancestor (a ``transfer``
route in the ``finish_commit`` message), or — when the committing action is
outermost for the colour — the colour's write set is made permanent with a
presumed-abort two-phase commit across the object servers involved, and
its locks are released.

Safety against server crashes: the epoch of every server is recorded when
an action first touches it; replies bearing a different epoch, and prepare
phases reaching a restarted server, abort the action — its volatile undo
and locks on that server died with the old epoch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.actions.status import ActionStatus, Outcome
from repro.cluster.deadlock import clear_waiting, mark_waiting
from repro.cluster.message import (
    encode_action_context,
    encode_colour,
    encode_uid,
    decode_uid,
)
from repro.cluster.node import Node
from repro.cluster.server import resolve_delegated
from repro.cluster.transport import RpcTransport
from repro.cluster.txn import COORDINATOR
from repro.colours.colour import Colour, colour_set
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
    RpcTimeout,
)
from repro.locking.modes import LockMode
from repro.sim.kernel import Timeout, all_of, settle_all
from repro.util.uid import Uid, UidGenerator


@dataclass(frozen=True)
class ObjectRef:
    """A handle to an object hosted on some node."""

    node: str
    uid: Uid
    type_name: str


class ClusterAction:
    """Client-side action record: identity, tree links, involvement maps."""

    def __init__(self, uid: Uid, colours: Iterable[Colour],
                 parent: Optional["ClusterAction"] = None, name: str = "",
                 home: str = ""):
        self.uid = uid
        #: node this action's client runs on (deadlock probes route here)
        self.home = home or (parent.home if parent is not None else "")
        self.colours: FrozenSet[Colour] = colour_set(colours)
        if not self.colours:
            raise InvalidActionState("an action needs at least one colour")
        self.parent = parent
        self.name = name or f"caction-{uid.sequence}"
        self.status = ActionStatus.ACTIVE
        self.children: List["ClusterAction"] = []
        self.path: Tuple[Uid, ...] = (parent.path + (uid,)) if parent else (uid,)
        #: colour -> nodes where this action holds locks of that colour
        self.involved: Dict[Colour, Set[str]] = {}
        #: colour -> nodes where this action has written objects
        self.write_nodes: Dict[Colour, Set[str]] = {}
        #: colour -> node -> object uids written there
        self.written: Dict[Colour, Dict[str, Set[Uid]]] = {}
        #: node -> epoch at first involvement
        self.server_epochs: Dict[str, int] = {}
        #: node -> colours released early by a read-only vote (the node is
        #: out of phase two for those colours)
        self.vote_released: Dict[str, Set[Colour]] = {}
        #: colour -> node -> object uid -> [(method, args)] for updates in
        #: declared-commuting operation groups: the redo log the commute
        #: path ships inside its single-round decision
        self.commute_ops: Dict[Colour, Dict[str, Dict[Uid, List[Tuple[str, list]]]]] = {}
        #: colours that picked up a non-commuting update (plain WRITE or a
        #: semantic group without a commuting declaration) — they fall back
        #: to classic/fast-path 2PC, whatever else they contain
        self.commute_blocked: Set[Colour] = set()
        #: nodes whose finish/transfer routing rode a delegated prepare
        #: (one-phase / piggybacked decision) — no finish_commit needed
        self.finished_nodes: Set[str] = set()
        self.default_colour: Optional[Colour] = None
        self.companion_colour: Optional[Colour] = None
        if parent is not None:
            parent.children.append(self)

    def lock_colour(self, requested: Optional[Colour] = None) -> Colour:
        if requested is not None:
            return requested
        if self.default_colour is not None:
            return self.default_colour
        if len(self.colours) == 1:
            return next(iter(self.colours))
        raise InvalidActionState(f"{self.name}: multi-coloured; name a colour")

    def closest_ancestor_with(self, colour: Colour) -> Optional["ClusterAction"]:
        ancestor = self.parent
        while ancestor is not None:
            if colour in ancestor.colours:
                return ancestor
            ancestor = ancestor.parent
        return None

    def note_lock(self, colour: Colour, node: str) -> None:
        self.involved.setdefault(colour, set()).add(node)

    def note_write(self, colour: Colour, node: str, object_uid: Uid) -> None:
        self.note_lock(colour, node)
        self.write_nodes.setdefault(colour, set()).add(node)
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

    def __repr__(self) -> str:
        return f"<ClusterAction {self.name} {self.status.value}>"


class ClusterClient:
    """Action factory and operation API for one client process on a node."""

    def __init__(self, node: Node, transport: RpcTransport,
                 action_uids: UidGenerator, colour_allocator,
                 class_registry: Dict[str, type], observability,
                 name: str = "client", fast_paths: bool = True,
                 commute: bool = True, backend=None):
        self.node = node
        #: the execution backend this client schedules on (reaper spawns,
        #: commit fan-outs, abort timers).  ``None`` keeps the node's own
        #: kernel — the pre-backend behaviour; a Cluster always passes its
        #: backend so client and servers share one loop and one clock.
        self.backend = backend
        self.kernel = backend.kernel if backend is not None else node.kernel
        self.transport = transport
        self.name = name
        #: the cluster's hub: every action gets a span there (so the RPC
        #: spans have a parent to stitch to) and per-colour outcome counters
        self.obs = observability
        #: commit-protocol fast paths (piggybacked decision, read-only
        #: votes, one-phase commit); False runs the classic protocol only
        self.fast_paths = fast_paths
        #: commutativity-based coordination avoidance: fully-commuting
        #: colours commit in one local-decision round (see _commute_commit)
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

    def _op_span(self, action: "ClusterAction", name: str, **attrs):
        """A client-side span parented on the action's span."""
        return self.obs.span(name, parent=getattr(action, "_obs_span", None),
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
    def _round_failure_cause(votes, failure: Optional[BaseException]) -> str:
        """Why did a prepare round fail: a real no-vote, or a casualty?"""
        if any(v not in (None, "commit") for v in votes):
            return "vote-rollback"
        if isinstance(failure, PrepareFailed):
            return "prepare-refused"
        if isinstance(failure, ActionAborted):
            return "action-aborted"
        if failure is not None:  # RpcTimeout, NodeDown, other ClusterError
            return "participant-unreachable"
        return "vote-rollback"

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

    def _notify_created(self, action: ClusterAction) -> ClusterAction:
        self.live_actions[action.uid] = action
        self.obs.action_begun(action, self.node.name)
        return action

    def _terminated(self, action: ClusterAction, status: ActionStatus,
                    outcome: Outcome) -> Outcome:
        """Seal a finished action: status, tree unlink, the hub told."""
        action.status = status
        if action.parent is not None and action in action.parent.children:
            action.parent.children.remove(action)
        self.live_actions.pop(action.uid, None)
        self.obs.action_ended(action, self.node.name)
        return outcome

    # -- action factories -----------------------------------------------------

    def top_level(self, name: str = "") -> ClusterAction:
        colour = self._colours.fresh(f"{name or 'top'}.colour")
        return self._notify_created(ClusterAction(
            self._action_uids.fresh(), [colour], None, name,
            home=self.node.name,
        ))

    def atomic(self, parent: ClusterAction, name: str = "") -> ClusterAction:
        return self._notify_created(ClusterAction(
            self._action_uids.fresh(), parent.colours, parent, name,
            home=self.node.name,
        ))

    def coloured(self, colours: Iterable[Colour],
                 parent: Optional[ClusterAction] = None,
                 name: str = "") -> ClusterAction:
        return self._notify_created(ClusterAction(
            self._action_uids.fresh(), colours, parent, name,
            home=self.node.name,
        ))

    def independent_top_level(self, parent: ClusterAction,
                              name: str = "independent") -> ClusterAction:
        colour = self._colours.fresh(f"{name}.colour")
        return self._notify_created(ClusterAction(
            self._action_uids.fresh(), [colour], parent, name,
            home=self.node.name,
        ))

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
        self._require_active(action)
        chosen = action.lock_colour(colour)
        self._check_colour(action, chosen)
        _lock_key, is_update, is_semantic, is_commuting = self._operation_kind(
            ref.type_name, method
        )
        span = self._op_span(action, f"invoke:{method}", dst=ref.node,
                             object=str(ref.uid), colour=str(chosen))
        mark_waiting(self.node, action.uid, ref.node)
        try:
            reply = yield from self.transport.call(ref.node, "invoke", {
                "action": encode_action_context(action),
                "object_uid": encode_uid(ref.uid),
                "method": method,
                "args": list(args),
                "colour": encode_colour(chosen),
            }, trace_parent=span)
        except (RpcTimeout, ActionAborted) as error:
            self._note_failure(action, error, op=f"invoke:{method}",
                               dst=ref.node, object_uid=ref.uid,
                               colour=chosen)
            yield from self.abort(action)
            raise
        except Exception as error:
            # server-reported failures (lock refusals, deadlock victims,
            # app exceptions) propagate to the caller without auto-abort;
            # record the cause so the eventual abort is attributable
            self._note_failure(action, error, op=f"invoke:{method}",
                               dst=ref.node, object_uid=ref.uid,
                               colour=chosen)
            raise
        finally:
            clear_waiting(self.node, action.uid)
            span.finish()
        action.note_lock(chosen, ref.node)
        if is_update:
            action.note_write(chosen, ref.node, ref.uid)
            if is_commuting:
                # applied and totally ordered-free: remember the op so the
                # commute path can redo it against committed state
                action.note_commute_op(chosen, ref.node, ref.uid,
                                       method, list(args))
            else:
                action.block_commute(chosen)
        try:
            action.check_epoch(ref.node, reply["epoch"])
        except ActionAborted as error:
            # The server restarted under us; the grant we just received is
            # on the new epoch — the abort below reaches it.
            self._note_failure(action, error, op=f"invoke:{method}",
                               dst=ref.node, object_uid=ref.uid,
                               colour=chosen)
            yield from self.abort(action)
            raise
        if action.companion_colour is not None and action.companion_colour != chosen:
            if is_semantic:
                from repro.objects.semantic import RETAIN_GROUP
                shadow = RETAIN_GROUP
            else:
                shadow = (LockMode.READ if not is_update
                          else LockMode.EXCLUSIVE_READ)
            yield from self.lock(action, ref, shadow,
                                 colour=action.companion_colour)
        return reply["result"]

    def lock(self, action: ClusterAction, ref: ObjectRef, mode,
             colour: Optional[Colour] = None):
        """Explicitly lock a remote object (hand-over pins etc.).

        ``mode`` is a :class:`LockMode` for ordinary objects or an
        operation-group name (str) for semantic objects.
        """
        self._require_active(action)
        chosen = action.lock_colour(colour)
        self._check_colour(action, chosen)
        mode_label = mode.value if hasattr(mode, "value") else str(mode)
        span = self._op_span(action, f"lock:{mode_label}", dst=ref.node,
                             object=str(ref.uid), colour=str(chosen))
        mark_waiting(self.node, action.uid, ref.node)
        try:
            reply = yield from self.transport.call(ref.node, "lock", {
                "action": encode_action_context(action),
                "object_uid": encode_uid(ref.uid),
                "mode": mode_label,
                "colour": encode_colour(chosen),
            }, trace_parent=span)
        except (RpcTimeout, ActionAborted) as error:
            self._note_failure(action, error, op=f"lock:{mode_label}",
                               dst=ref.node, object_uid=ref.uid,
                               colour=chosen)
            yield from self.abort(action)
            raise
        except Exception as error:
            self._note_failure(action, error, op=f"lock:{mode_label}",
                               dst=ref.node, object_uid=ref.uid,
                               colour=chosen)
            raise
        finally:
            clear_waiting(self.node, action.uid)
            span.finish()
        action.note_lock(chosen, ref.node)
        if mode is LockMode.WRITE:
            action.note_write(chosen, ref.node, ref.uid)
            # an explicit WRITE pin has no redo operation: classic 2PC
            action.block_commute(chosen)
        try:
            action.check_epoch(ref.node, reply["epoch"])
        except ActionAborted as error:
            self._note_failure(action, error, op=f"lock:{mode_label}",
                               dst=ref.node, object_uid=ref.uid,
                               colour=chosen)
            yield from self.abort(action)
            raise
        return True

    # -- termination ---------------------------------------------------------------

    def commit(self, action: ClusterAction):
        """Commit: per-colour 2PC or transfer, then one batched finish per
        server.

        A single permanent colour runs the classic prepare round
        (:meth:`_two_phase_commit`); several permanent colours share one
        *batched* prepare fan-out — per server, every colour's
        ``txn_prepare`` rides in one ``call_many`` message
        (:meth:`_batched_prepare`) — before the decision broadcasts and the
        finish/transfer routing are merged into a single parallel fan-out,
        one network message per involved server.  Termination cost is thus
        bounded by the slowest server, not the sum over colours or servers
        (see :meth:`_finish_commit`).
        """
        self._require_active(action)
        yield from self._settle_children(action)
        action.status = ActionStatus.COMMITTING
        span = self._op_span(action, "commit")
        routes: Dict[Colour, Optional[ClusterAction]] = {}
        #: commit decisions logged but not yet delivered: (txn_id, nodes)
        decided: List[Tuple[str, Set[str]]] = []
        #: colours this action is outermost for, with pending writes
        permanent: List[Tuple[Colour, Dict[str, Set[Uid]]]] = []
        ordered = sorted(action.colours, key=lambda c: c.uid)
        for colour in ordered:
            destination = action.closest_ancestor_with(colour)
            routes[colour] = destination
            self.obs.emit(
                "commit.route", action=str(action.uid),
                colour=str(colour),
                dest=(str(destination.uid) if destination is not None
                      else ""),
                node=self.node.name,
            )
            if destination is not None:
                self._bequeath(action, colour, destination)
                # §5.2: locks and undo responsibility are inherited by
                # the closest same-coloured ancestor, not made permanent
                self.obs.count("colour_inherited_total",
                               colour=str(colour))
                continue
            write_map = action.written.get(colour, {})
            if not write_map:
                continue
            permanent.append((colour, write_map))
        failed_colour: Optional[Colour] = None
        for commuting, run in itertools.groupby(
                permanent,
                key=lambda item: self._commute_eligible(action, *item)):
            run = list(run)
            if commuting:
                # fully-commuting colours: one guaranteed-commit round each,
                # no prepare phase, nothing left for the finish fan-out
                for colour, write_map in run:
                    yield from self._commute_commit(action, colour, write_map,
                                                    parent_span=span)
            elif len(run) == 1:
                result = yield from self._two_phase_commit(
                    action, *run[0], parent_span=span)
                if result is None:
                    failed_colour = run[0][0]
                else:
                    decided.append(result)
            else:
                # a maximal run of classic colours shares one prepare
                # fan-out, preserving colour-order failure semantics: a
                # failure cascades over later colours
                newly_decided, failed_colour = yield from self._batched_prepare(
                    action, run, parent_span=span)
                decided.extend(newly_decided)
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
            if decided:
                # Earlier colours already decided commit; per-colour
                # permanence means their updates survive the abort of
                # the remaining colours — deliver those decisions
                # before abort_action undoes anything.
                yield from self._broadcast_decisions(action, decided)
            yield from self.abort(action)
            raise CommitError(
                f"{action.name}: two-phase commit of colour "
                f"{failed_colour} failed"
            )
        yield from self._finish_commit(action, routes, decided,
                                       parent_span=span)
        span.set(outcome="committed").finish()
        # per-colour commit latency: the whole termination protocol
        # (prepare rounds + decision/finish fan-out) as one histogram
        # observation — what the commit-latency SLO watches
        for colour in action.colours:
            self.obs.observe("commit_latency", span.duration,
                             colour=str(colour), node=self.node.name)
        return self._terminated(action, ActionStatus.COMMITTED,
                                Outcome.COMMITTED)

    def abort(self, action: ClusterAction):
        """Abort: undo and release on every involved server."""
        if action.status is ActionStatus.ABORTED:
            return Outcome.ABORTED
        if action.status is ActionStatus.COMMITTED:
            raise InvalidActionState(f"{action.name} already committed")
        action.status = ActionStatus.ABORTING
        yield from self._settle_children(action)
        span = self._op_span(action, "abort")
        payload = {"action_uid": encode_uid(action.uid)}
        calls_for = {node_name: [("abort_action", payload)]
                     for node_name in action.all_nodes()}
        if calls_for:
            self.obs.observe("termination_fanout_width", len(calls_for),
                             kind="abort")
        # A server that does not answer is either down (its volatile locks
        # died with it) or a *live* one we are partitioned from that still
        # holds the action's locks: the fan-out's reaper keeps retrying
        # until the abort lands — abort_action is idempotent, so
        # over-delivery is harmless.
        yield from self._fan_out(f"abort:{action.uid}", calls_for,
                                 span=span, batched=False)
        span.set(outcome="aborted").finish()
        return self._terminated(action, ActionStatus.ABORTED, Outcome.ABORTED)

    def _fan_out(self, label: str,
                 calls_for: Dict[str, List[Tuple[str, Dict[str, Any]]]],
                 span=None, batched: bool = True, accept=None):
        """Deliver each node's ``(kind, payload)`` calls in parallel: one
        process and one network message per node, so the round costs the
        slowest server, not the sum.

        ``batched`` ships a node's calls as one ``rpc_batch`` (dispatched
        in order; any failing sub-call fails the node); otherwise each node
        gets its single call as a plain RPC.  Returns ``{node: reply}`` for
        the nodes that answered (and whose reply ``accept`` took, if
        given).  Every other node gets a background reaper redelivering the
        same calls — termination calls are all idempotent server-side.
        """
        nodes = sorted(calls_for)

        def deliver(node_name: str):
            calls = calls_for[node_name]
            if batched:
                outcomes = yield from self.transport.call_many(
                    node_name, calls, trace_parent=span)
                for ok, value in outcomes:
                    if not ok:
                        raise value
                return [value for _ok, value in outcomes]
            (kind, payload), = calls
            reply = yield from self.transport.call(
                node_name, kind, payload, trace_parent=span)
            self._ack_forget(node_name, payload)  # a prepare may carry some
            return reply

        handles = [self.kernel.spawn(deliver(n), name=f"{label}@{n}")
                   for n in nodes]
        outcomes = yield settle_all(self.kernel, [h.join() for h in handles])
        replies: Dict[str, Any] = {}
        for node_name, (ok, value) in zip(nodes, outcomes):
            if ok and (accept is None or accept(value)):
                replies[node_name] = value
            else:
                self._spawn_reaper(node_name, calls_for[node_name], label)
        return replies

    def _spawn_reaper(self, node_name: str, calls, label: str,
                      attempts: int = 30, pause: float = 15.0) -> None:
        """Keep delivering, in the background, termination calls a
        partition or crash swallowed.

        ``calls`` is a ``(kind, payload)`` batch — abort_action, txn_abort,
        or txn_commit+finish_commit — every one of which is idempotent
        server-side, so retrying under fresh rpc ids until the batch lands
        (or the budget runs out: a crashed server's volatile locks died
        with it, and its log-driven recovery resolves the rest) is safe.
        """
        def reap():
            # backlog bookkeeping brackets the reaper's whole life so the
            # introspection layer can report how many terminations are
            # still being chased per node (kill/crash included: the
            # generator's close() runs the finally block)
            self.reaper_backlog[node_name] = (
                self.reaper_backlog.get(node_name, 0) + 1)
            try:
                for _attempt in range(attempts):
                    yield Timeout(pause)
                    try:
                        outcomes = yield from self.transport.call_many(
                            node_name, calls, timeout=5.0, retries=1)
                    except RpcTimeout:
                        continue
                    if all(ok for ok, _ in outcomes):
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

    def _require_active(self, action: ClusterAction) -> None:
        if action.status is not ActionStatus.ACTIVE:
            raise InvalidActionState(
                f"{action.name} is {action.status.value}, expected active"
            )

    def _check_colour(self, action: ClusterAction, colour: Colour) -> None:
        if colour not in action.colours:
            raise InvalidActionState(
                f"{action.name} does not possess colour {colour}"
            )

    def _operation_mode(self, type_name: str, method: str) -> LockMode:
        cls = self._classes.get(type_name)
        if cls is None:
            raise ClusterError(f"unknown type {type_name!r}")
        attr = getattr(cls, method, None)
        mode = getattr(attr, "__repro_mode__", None)
        if mode is None:
            raise ClusterError(f"{type_name}.{method} is not an @operation")
        return mode

    def _operation_kind(self, type_name: str, method: str):
        """(lock key, is_update, is_semantic, is_commuting) for an op."""
        cls = self._classes.get(type_name)
        if cls is None:
            raise ClusterError(f"unknown type {type_name!r}")
        attr = getattr(cls, method, None)
        mode = getattr(attr, "__repro_mode__", None)
        if mode is not None:
            return mode, mode is LockMode.WRITE, False, False
        group = getattr(attr, "__repro_group__", None)
        if group is not None:
            updates = getattr(attr, "__repro_inverse__", None) is not None
            spec = getattr(cls, "SEMANTICS", None)
            commuting = (updates and spec is not None
                         and spec.is_commuting(group))
            return group, updates, True, commuting
        raise ClusterError(f"{type_name}.{method} is not an operation")

    def _settle_children(self, action: ClusterAction):
        while True:
            active = [c for c in action.children if not c.status.terminated]
            if not active:
                return
            for child in active:
                if child.colours & action.colours:
                    # the child dies because its parent settled, not
                    # through any conflict of its own
                    self.obs.emit("action.failure",
                                  action=str(child.uid), op="settle",
                                  cause="parent-settled",
                                  detail=str(action.uid),
                                  node=self.node.name)
                    yield from self.abort(child)
                else:
                    self._detach(child)

    def _detach(self, child: ClusterAction) -> None:
        old_parent = child.parent
        if old_parent is not None and child in old_parent.children:
            old_parent.children.remove(child)
        ancestor = old_parent.parent if old_parent is not None else None
        while ancestor is not None and ancestor.status.terminated:
            ancestor = ancestor.parent
        child.parent = ancestor
        if ancestor is not None:
            ancestor.children.append(child)

    def _bequeath(self, action: ClusterAction, colour: Colour,
                  destination: ClusterAction) -> None:
        """Client-side bookkeeping move; the servers move the real records
        on finish_commit."""
        destination.involved.setdefault(colour, set()).update(
            action.involved.get(colour, set())
        )
        destination.write_nodes.setdefault(colour, set()).update(
            action.write_nodes.get(colour, set())
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

    def _finish_commit(self, action: ClusterAction,
                       routes: Dict[Colour, Optional[ClusterAction]],
                       decided: List[Tuple[str, Set[str]]],
                       parent_span=None):
        """Deliver every commit decision and the finish/transfer routing in
        one parallel fan-out: a single batched message per involved server.

        Each server's batch carries its ``txn_commit`` sub-calls *before*
        the ``finish_commit`` sub-call and the server dispatches sub-calls
        in order, so shadow promotion always precedes lock release on that
        server.  A server that cannot be reached gets a background reaper
        (both sub-calls are idempotent); its decisions are also resolvable
        from our coordinator log via recovery, so we only log ``coord_end``
        — the record that lets checkpointing forget a transaction — for
        transactions whose *entire* participant set acked here.

        Fast-path exclusions: a server whose finish routing rode a
        delegated prepare (``action.finished_nodes``) and a server whose
        every colour was released by read-only votes
        (``action.vote_released``) have nothing left to do and are left
        out of the fan-out entirely.  Neither can appear in a decided
        transaction's participant set — a delegated server already applied
        its commit, and a fully-released server was a pure reader — so the
        ``coord_end`` accounting is unaffected.
        """
        encoded_routes = [
            {
                "colour": encode_colour(colour),
                "dest": (encode_action_context(dest) if dest is not None else None),
            }
            for colour, dest in sorted(routes.items(), key=lambda kv: kv[0].uid)
        ]
        nodes = []
        for node_name in sorted(action.all_nodes()):
            if node_name in action.finished_nodes:
                continue
            released = action.vote_released.get(node_name, set())
            if released and released >= action.colours_at(node_name):
                self.obs.count("read_only_saved_finish_total",
                               node=node_name)
                continue
            nodes.append(node_name)
        calls_for: Dict[str, List[Tuple[str, Dict[str, Any]]]] = {}
        for node_name in nodes:
            calls = [("txn_commit", {"txn_id": txn_id})
                     for txn_id, parts in decided if node_name in parts]
            calls.append(("finish_commit", {
                "action_uid": encode_uid(action.uid),
                "routes": encoded_routes,
            }))
            calls_for[node_name] = calls

        started = self.kernel.now
        if nodes:
            self.obs.observe("termination_fanout_width", len(nodes),
                             kind="commit")
        acked = yield from self._fan_out(f"finish:{action.uid}", calls_for,
                                         span=parent_span)
        self._end_acked(decided, acked)
        if nodes:
            self.obs.observe("commit_fanout_time",
                             self.kernel.now - started, width=len(nodes))

    def _broadcast_decisions(self, action: ClusterAction,
                             decided: List[Tuple[str, Set[str]]]):
        """Deliver already-logged commit decisions to their participants.

        Used on commit's failure path: colours decided *before* the failing
        colour are permanent (their ``coord_commit`` records exist), so
        their participants must promote shadows before ``abort_action``
        undoes anything on the same servers.
        """
        calls_for: Dict[str, List[Tuple[str, Dict[str, Any]]]] = {}
        for txn_id, parts in decided:
            for node_name in parts:
                calls_for.setdefault(node_name, []).append(
                    ("txn_commit", {"txn_id": txn_id}))
        acked = yield from self._fan_out(f"decide:{action.uid}", calls_for)
        self._end_acked(decided, acked)

    def _end_acked(self, decided: Iterable[Tuple[str, Set[str]]],
                   acked: Iterable[str]) -> None:
        """Log ``coord_end`` — the record that lets checkpointing forget a
        transaction — for each one whose *entire* participant set acked."""
        acked = set(acked)
        for txn_id, parts in decided:
            if parts <= acked:
                self.node.txns.advance(COORDINATOR, txn_id, "end")
                self.obs.emit("twopc.end", txn=txn_id,
                              node=self.node.name)

    # -- two-phase commit (coordinator) --------------------------------------------------------

    def _begin_txn(self, action: ClusterAction, colour: Colour,
                   participants: List[str], parent_span=None,
                   spanned: bool = True, **span_attrs):
        """Open one colour's commit round: allocate its txn id, start its
        ``2pc:<colour>`` span (unless the caller spans several rounds at
        once) and announce it.  Returns ``(txn_id, span)``."""
        txn_id = (f"txn:{self.node.name}:{action.uid.sequence}:"
                  f"{colour.uid.sequence}:{next(self._txn_seq)}")
        span = None
        if spanned:
            span = self.obs.span(f"2pc:{colour}", parent=parent_span,
                                 kind="client", node=self.node.name,
                                 txn=txn_id,
                                 participants=len(participants),
                                 **span_attrs)
        self.obs.emit("twopc.begin", txn=txn_id,
                      action=str(action.uid), colour=str(colour),
                      participants=",".join(participants),
                      node=self.node.name)
        return txn_id, span

    def _decide(self, txn_id: str, colour: Colour, decision: str,
                announce: bool = True, **labels: str) -> None:
        """Take the coordinator's ``decide_commit``/``decide_abort`` edge
        and account for it.

        A commit is logged before any participant is told.  An abort needs
        no record (presumed abort) unless it undoes a delegation; a
        decision the delegated-outcome resolver already recorded is
        answer-only.  ``announce=False`` when the decision event already
        came from the delegate (labelled with its fast path).
        """
        self.node.txns.advance(
            COORDINATOR, txn_id, f"decide_{decision}",
            **({"commute": True} if "commute" in labels else {}))
        self.obs.count("twopc_rounds_total", colour=str(colour),
                       outcome=("committed" if decision == "commit"
                                else "aborted"))
        if decision == "commit":
            self.obs.count("colour_permanent_total", colour=str(colour))
        if announce:
            self.obs.emit("twopc.decision", txn=txn_id,
                          decision=decision, node=self.node.name,
                          **labels)

    def _prepare_payload(self, action: ClusterAction, txn_id: str,
                         colour: Colour, node_name: str,
                         object_uids: Iterable[Uid] = (),
                         forget: bool = True) -> Dict[str, Any]:
        """A txn_prepare payload, with any pending lazy acknowledgements
        of earlier delegated commits to this node riding along (``forget``:
        once per message is enough)."""
        payload = {
            "txn_id": txn_id,
            "action_uid": encode_uid(action.uid),
            "colour": encode_colour(colour),
            "object_uids": [encode_uid(u) for u in sorted(object_uids)],
            "expected_epoch": action.server_epochs.get(node_name),
        }
        pending = self._pending_forget.get(node_name)
        if forget and pending:
            payload["forget"] = list(pending)
        return payload

    def _ack_forget(self, node_name: str, payload: Dict[str, Any]) -> None:
        """The prepare carrying these forgets was answered: stop resending."""
        if payload.get("forget"):
            sent = set(payload["forget"])
            remaining = [t for t in self._pending_forget.pop(node_name, ())
                         if t not in sent]
            if remaining:
                self._pending_forget[node_name] = remaining

    def _spawn_read_only_prepares(self, action: ClusterAction, txn_id: str,
                                  colour: Colour,
                                  write_map: Dict[str, Set[Uid]],
                                  span=None) -> List[str]:
        """Fire-and-forget read-only prepares to the colour's pure readers
        (returned); none without ``fast_paths``.

        Never gates the decision (the classic protocol does not contact
        readers at all): a reader that answers ``read-only`` released its
        locks at vote time and is skipped by the finish fan-out; one that
        cannot be reached simply falls back to the classic finish path.
        """
        if not self.fast_paths:
            return []

        def read_only_one(node_name: str):
            payload = dict(self._prepare_payload(action, txn_id, colour,
                                                 node_name), read_only=True)
            try:
                reply = yield from self.transport.call(
                    node_name, "txn_prepare", payload, trace_parent=span)
            except Exception:
                # fast-path downgrade: this reader falls back to the
                # classic finish fan-out (it never answered read-only)
                self.obs.emit("twopc.downgrade", txn=txn_id,
                              node=self.node.name, dst=node_name,
                              reason="read-only-unreachable",
                              resolution="classic-finish")
                return False
            self._ack_forget(node_name, payload)
            if reply.get("vote") == "read-only":
                action.vote_released.setdefault(node_name, set()).add(colour)
            return True

        readers = sorted(action.involved.get(colour, set()) - set(write_map))
        for node_name in readers:
            self.kernel.spawn(read_only_one(node_name),
                              name=f"ro-prepare:{txn_id}:{node_name}")
        return readers

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

    def _commute_commit(self, action: ClusterAction, colour: Colour,
                        write_map: Dict[str, Set[Uid]], parent_span=None):
        """Coordination avoidance for a fully-commuting colour (§2 pushed
        into the commit protocol).

        Every update in the colour belongs to a declared-commuting
        operation group: the operations are *total* (re-applying them
        against any committed state cannot fail — escrow bounds were
        reserved at execute time) and order-independent.  Every
        participant's vote is therefore guaranteed-yes, so the prepare
        round degenerates to decision delivery: the commit decision is
        logged *before* the fan-out, and each participant locally
        vote-and-applies the colour's merged effects in the same round —
        one RPC per participant, no phase two, no finish message for
        single-colour participants.

        The prepare carries the colour's redo op list, which is what keeps
        the guarantee honest across failures: a participant that restarted
        (losing its volatile effects) re-applies the operations from the
        message against its committed state; one that cannot be reached
        gets a background reaper redelivering the same idempotent message
        (participants dedupe on txn_id against their COMMITTED records).
        """
        participants = sorted(write_map)
        txn_id, span = self._begin_txn(action, colour, participants,
                                       parent_span, fast_path="commute")
        ops_for = action.commute_ops.get(colour, {})
        # decision first: with guaranteed-yes votes there is nothing to
        # wait for, and a durable decision lets an unreachable participant
        # be converged later by redelivery instead of presumed abort
        self._decide(txn_id, colour, "commit", commute="1")
        self._spawn_read_only_prepares(action, txn_id, colour, write_map,
                                       span=span)
        calls_for: Dict[str, List[Tuple[str, Dict[str, Any]]]] = {}
        for node_name in participants:
            payload = self._prepare_payload(
                action, txn_id, colour, node_name, write_map[node_name])
            payload["commute"] = True
            # full context (not just the uid): a restarted participant
            # rebuilds the action mirror to hold the redo's group locks
            payload["action"] = encode_action_context(action)
            payload["ops"] = {
                encode_uid(uid): [[method, list(args)] for method, args
                                  in ops_for[node_name][uid]]
                for uid in sorted(write_map[node_name])
            }
            if action.colours_at(node_name) == {colour}:
                payload["finish"] = [{"colour": encode_colour(colour),
                                      "dest": None}]
            calls_for[node_name] = [("txn_prepare", payload)]
        round_started = self.kernel.now
        # crash, partition or lost reply: the decision is durable and the
        # message idempotent — the fan-out's reaper redelivers until it lands
        acked = yield from self._fan_out(
            f"commute:{txn_id}", calls_for, span=span, batched=False,
            accept=lambda reply: reply.get("vote") == "commute")
        for node_name in participants:
            reply = acked.get(node_name)
            if reply is None:
                self.obs.emit("twopc.downgrade", txn=txn_id,
                              node=self.node.name, dst=node_name,
                              reason="commute-unreachable",
                              resolution="redelivery")
                continue
            # the participant's COMMITTED record is acknowledged lazily,
            # riding our next prepare to it (checkpointing)
            self._pending_forget.setdefault(node_name, []).append(txn_id)
            if reply.get("finished"):
                action.finished_nodes.add(node_name)
            else:
                # locks released at vote-and-apply time: the node is out
                # of this colour's phase two and finish routing
                action.vote_released.setdefault(node_name, set()).add(colour)
        self.obs.observe("twopc_prepare_time",
                         self.kernel.now - round_started,
                         colour=str(colour))
        self._end_acked([(txn_id, set(participants))], acked)
        span.set(outcome="committed", fast_path="commute").finish()
        return txn_id

    def _two_phase_commit(self, action: ClusterAction, colour: Colour,
                          write_map: Dict[str, Set[Uid]], parent_span=None):
        """Presumed-abort 2PC prepare round for one colour's write set.

        Classic flow (``fast_paths=False``): one parallel prepare fan-out
        over every writer; the commit decision is logged here and delivered
        by the caller's merged finish fan-out.

        Fast flow (the default): pure readers of the colour get non-gating
        *read-only* prepares (they release their locks at vote time and
        leave phase two); all writers but one run the classic parallel
        round; then the commit decision rides *inside* the last writer's
        prepare (the R* last-agent / piggybacked-decision optimisation) —
        with a single writer that collapses to a one-phase commit.  When
        that writer's entire involvement is this colour, its finish
        routing rides along too and no termination message follows at all.

        Returns ``(txn_id, phase_two_nodes)`` once the commit decision is
        durable — the caller delivers ``txn_commit`` to exactly
        ``phase_two_nodes`` in the merged finish fan-out — or ``None`` when
        any writer voted rollback, timed out, or restarted.
        """
        participants = sorted(write_map)
        txn_id, span = self._begin_txn(action, colour, participants,
                                       parent_span)
        # concurrent with the writer round, never gating it
        readers = self._spawn_read_only_prepares(action, txn_id, colour,
                                                 write_map, span=span)
        plain, last_agent = participants, None
        if self.fast_paths:
            plain, last_agent = participants[:-1], participants[-1]

        def prepare_one(node_name: str):
            payload = self._prepare_payload(
                action, txn_id, colour, node_name, write_map[node_name])
            reply = yield from self.transport.call(
                node_name, "txn_prepare", payload, trace_parent=span)
            self._ack_forget(node_name, payload)
            return reply["vote"]

        prepare_started = self.kernel.now
        handles = [
            self.kernel.spawn(prepare_one(n), name=f"prepare:{txn_id}:{n}")
            for n in plain
        ]
        votes: List[Optional[str]] = []
        round_failure: Optional[BaseException] = None
        try:
            votes = list((yield all_of(self.kernel,
                                       [h.join() for h in handles])))
        except (PrepareFailed, RpcTimeout, ActionAborted,
                ClusterError) as error:
            round_failure = error
        #: why the round aborts; None while it is still heading for commit
        abort_cause: Optional[str] = None
        fast_kind = ""
        finished = False
        if round_failure is not None or any(v != "commit" for v in votes):
            # Cancel prepares still in flight *before* announcing the
            # abort: a killed task's transport cleanup runs immediately
            # (finally blocks), and any prepare already on the wire races
            # the txn_abort — the server resolves that race by treating a
            # prepare for an already-aborted txn_id as a rollback vote
            # (presumed abort), so no straggler can park itself in-doubt.
            for handle in handles:
                handle.kill()
            abort_cause = self._round_failure_cause(votes, round_failure)
        elif last_agent is not None:
            # Delegate the decision to the remaining writer: its prepare
            # both asks for and *carries* the decision (every earlier vote
            # was commit, so a commit vote there decides the transaction).
            # The delegation is logged first — if we crash or lose the
            # reply, the outcome is recoverable from the named last agent.
            fast_kind = "one_phase" if len(participants) == 1 else "piggyback"
            self.node.txns.advance(COORDINATOR, txn_id, "delegate",
                                   last_agent=last_agent)
            payload = self._prepare_payload(
                action, txn_id, colour, last_agent, write_map[last_agent])
            payload["decide"] = True
            payload["fast_path"] = fast_kind
            if action.colours_at(last_agent) == {colour}:
                # the node's entire involvement commits right here: ship
                # its (trivial) finish routing inside the same message
                payload["finish"] = [{"colour": encode_colour(colour),
                                      "dest": None}]
            try:
                reply = yield from self.transport.call(
                    last_agent, "txn_prepare", payload, trace_parent=span)
                self._ack_forget(last_agent, payload)
                finished = bool(reply.get("finished"))
                if reply["vote"] != "commit":
                    abort_cause = "vote-rollback"
            except (RpcTimeout, PrepareFailed, ActionAborted, ClusterError):
                # The decision may or may not have landed — and not only
                # on a timeout: an error reply can come from a
                # *retransmission* after the first copy committed and the
                # delegate crashed (the retry then hits the bumped epoch).
                # Never presume rollback past this point; resolve through
                # the last agent, whose answer is definitive.
                decision = yield from resolve_delegated(
                    self.node, self.transport, txn_id, last_agent,
                    trace_parent=span)
                # the fast path degenerated into an outcome query loop
                self.obs.emit("twopc.downgrade", txn=txn_id,
                              node=self.node.name, dst=last_agent,
                              reason="delegated-reply-lost",
                              resolution=decision)
                if decision != "commit":
                    abort_cause = "fast-path-downgrade"
                # a committed outcome proves the prepare arrived whole —
                # the piggybacked finish (if any) was applied with it
                finished = decision == "commit" and "finish" in payload
        # coordinator-observed latency of the whole prepare round
        self.obs.observe("twopc_prepare_time",
                         self.kernel.now - prepare_started,
                         colour=str(colour))
        if abort_cause is not None:
            self._decide(txn_id, colour, "abort", cause=abort_cause)
            span.set(outcome="aborted").finish()
            # Presumed abort: tell whoever may have prepared — only the
            # plain round's participants, the last agent either never saw
            # a prepare or refused it — reaping nodes we cannot reach.
            yield from self._fan_out(
                f"txn-abort:{txn_id}",
                {n: [("txn_abort", {"txn_id": txn_id})] for n in plain},
                batched=False)
            return None
        # decision: commit.  The caller delivers it to the plain round
        # inside the merged finish batch; a delegate already applied it
        # and announced it (labelled with the fast path).
        self._decide(txn_id, colour, "commit", announce=last_agent is None)
        if last_agent is not None:
            # lazily acknowledge the delegate's COMMITTED record on the
            # next prepare we send it, so its checkpoint can drop the record
            self._pending_forget.setdefault(last_agent, []).append(txn_id)
            if finished:
                action.finished_nodes.add(last_agent)
            if readers:
                # Zero-time barrier: with a single writer the read-only
                # replies land at the same instant as the delegated reply
                # but later in the event queue; draining it here lets the
                # caller's finish fan-out see those votes.  Costs no
                # simulated time and never waits for a slow or dead reader.
                yield Timeout(0.0)
            self.obs.count("decision_piggyback_saved_rpcs_total",
                           1 + (1 if finished else 0))
        span.set(outcome="committed")
        if fast_kind:
            span.set(fast_path=fast_kind)
        span.finish()
        return txn_id, set(plain)

    def _batched_prepare(self, action: ClusterAction,
                         permanent: List[Tuple[Colour, Dict[str, Set[Uid]]]],
                         parent_span=None):
        """One prepare fan-out shared by every permanent colour.

        Sequentially, k permanent colours cost k prepare rounds — one
        ``txn_prepare`` per (colour, participant) pair, each a full network
        round trip.  Here the pairs are regrouped per server and shipped
        through :meth:`RpcTransport.call_many`, so a server hosting writes
        of several colours sees *one* message carrying all its prepare
        sub-calls (dispatched in colour order); the saved round trips are
        counted in ``prepare_batch_saved_rpcs_total``.

        Decision semantics match the sequential rounds exactly: votes are
        judged in colour order, and the first colour with a missing or
        negative vote fails the commit — it and every *later* colour
        (prepared or not) are aborted with batched ``txn_abort`` deliveries,
        since sequential execution would never have decided them.  Returns
        ``(decided, failed_colour)`` where ``decided`` is
        ``[(txn_id, participants)]`` for the all-commit prefix and
        ``failed_colour`` is ``None`` on a clean run.

        Fast paths here are deliberately narrower than the single-colour
        round: the piggybacked decision and one-phase commit are *not*
        attempted, because the colour-order failure semantics above need
        every colour's votes in hand before any decision is taken.  The
        read-only optimisation does apply — ``read_only`` prepare sub-calls
        for a colour's pure readers ride the batches of servers the writer
        round already visits (never widening the fan-out), and an answering
        reader is dropped from that colour's phase two.
        """
        rounds = []
        for colour, write_map in permanent:
            participants = sorted(write_map)
            txn_id, _ = self._begin_txn(action, colour, participants,
                                        spanned=False)
            rounds.append({"colour": colour, "write_map": write_map,
                           "txn_id": txn_id, "participants": participants,
                           "votes": {}})
        span = self.obs.span("2pc-batched-prepare", parent=parent_span,
                             kind="client", node=self.node.name,
                             colours=len(rounds))
        calls_for: Dict[str, List[Tuple[str, Dict[str, Any]]]] = {}
        index_for: Dict[str, List[Tuple[str, int]]] = {}
        for i, r in enumerate(rounds):
            for node_name in r["participants"]:
                payload = self._prepare_payload(
                    action, r["txn_id"], r["colour"], node_name,
                    r["write_map"][node_name],
                    forget=node_name not in calls_for)
                calls_for.setdefault(node_name, []).append(
                    ("txn_prepare", payload))
                index_for.setdefault(node_name, []).append(("prepare", i))
        # counted before the read-only riders join: the classic
        # protocol never contacts readers, so only regrouped *writer*
        # prepares are round trips saved over sequential rounds
        saved = sum(len(calls) - 1 for calls in calls_for.values())
        if saved:
            self.obs.count("prepare_batch_saved_rpcs_total", saved)
        if self.fast_paths:
            # read-only riders: only on batches the writer round sends
            # anyway — a sub-call is free, a widened fan-out is not
            for i, r in enumerate(rounds):
                readers = (action.involved.get(r["colour"], set())
                           - set(r["write_map"]))
                for node_name in sorted(readers & set(calls_for)):
                    payload = self._prepare_payload(
                        action, r["txn_id"], r["colour"], node_name,
                        forget=False)
                    calls_for[node_name].append(
                        ("txn_prepare", dict(payload, read_only=True)))
                    index_for[node_name].append(("read_only", i))
        nodes = sorted(calls_for)
        prepare_started = self.kernel.now

        def prepare_batch(node_name: str):
            return (yield from self.transport.call_many(
                node_name, calls_for[node_name], trace_parent=span))

        handles = [
            self.kernel.spawn(prepare_batch(n),
                              name=f"prepare-batch:{action.uid}@{n}")
            for n in nodes
        ]
        outcomes = yield settle_all(self.kernel, [h.join() for h in handles])
        round_time = self.kernel.now - prepare_started
        for node_name, (ok, value) in zip(nodes, outcomes):
            if not ok:  # whole batch undeliverable: no votes from this node
                continue
            self._ack_forget(node_name, calls_for[node_name][0][1])
            for (role, i), (sub_ok, sub_value) in zip(index_for[node_name],
                                                      value):
                if not sub_ok:
                    continue
                if role == "read_only":
                    if sub_value.get("vote") == "read-only":
                        action.vote_released.setdefault(
                            node_name, set()).add(rounds[i]["colour"])
                    continue
                rounds[i]["votes"][node_name] = sub_value["vote"]
        decided: List[Tuple[str, Set[str]]] = []
        failed_index: Optional[int] = None
        for i, r in enumerate(rounds):
            self.obs.observe("twopc_prepare_time", round_time,
                             colour=str(r["colour"]))
            all_commit = all(r["votes"].get(p) == "commit"
                             for p in r["participants"])
            if failed_index is None and all_commit:
                self._decide(r["txn_id"], r["colour"], "commit")
                decided.append((r["txn_id"], set(r["write_map"])))
            elif failed_index is None:
                failed_index = i
        if failed_index is None:
            span.set(outcome="committed").finish()
            return decided, None
        # presumed abort for the failing colour and everything after it:
        # tell whoever may have prepared, again one batch per server.
        abort_calls: Dict[str, List[Tuple[str, Dict[str, Any]]]] = {}
        for i, r in enumerate(rounds[failed_index:]):
            if i > 0:
                cause = "colour-order-cascade"
            elif any(v != "commit" for v in r["votes"].values()):
                cause = "vote-rollback"
            else:
                cause = "participant-unreachable"
            self._decide(r["txn_id"], r["colour"], "abort", cause=cause)
            for node_name in r["participants"]:
                abort_calls.setdefault(node_name, []).append(
                    ("txn_abort", {"txn_id": r["txn_id"]}))
        span.set(outcome="aborted").finish()
        yield from self._fan_out(f"txn-abort-batch:{action.uid}", abort_calls)
        return decided, rounds[failed_index]["colour"]

"""At-most-once RPC over the lossy network.

"Well known network protocol level techniques are available" for lost and
duplicated messages (§2) — this is that layer.  Clients retransmit requests
until the server is heard from or retries are exhausted; servers
deduplicate by rpc id and cache replies so a retransmitted request is
answered, not re-executed.

A server forgets what nobody can ask again.  An rpc id names the caller's
node, its epoch and a sequence number, and every request carries the
sequence numbers of the caller's other calls to the same server that were
still pending when it was first sent (``rpc_live``).  Per caller, the
server keeps the live set carried by the highest sequence it has seen from
the caller's current epoch.  A request below that mark and outside that
set, or from an older epoch, is *stale*: its caller has finished the call,
so the request is dropped silently and its cached reply evicted.  The
cache therefore holds replies of live calls only.  It is volatile: a
crashed server forgets, which is exactly why the layers above (2PC, action
abort) exist.

Server handlers receive a ``respond`` callable and may reply *later* (lock
waits resolve asynchronously).  The reply is the ack: a handler that
responds within half an rpc timeout of receiving the request costs two
messages, request and ``rpc_reply``.  An ``rpc_ack`` — "received, the
reply will come, stop retransmitting" — is sent only for a request that is
still executing: half a timeout after the dispatch that received it, if
the call is still live and executing on the same node epoch then, and at
once for every ack-phase duplicate that arrives meanwhile (duplicates are
never re-executed).  Most lock waits end within that half timeout and cost
no ack; the ack still reaches the client before its first retransmission
whenever a round trip takes less than the other half (Birrell and
Nelson acked only a call that outlived the retransmission interval).

A call therefore has two phases, and a lost reply is recovered in whichever
one the client is in.  *Ack phase*: nothing heard yet — the request is
retransmitted every ``timeout``; if the handler had answered, the
retransmission is served from the reply cache.  *Completion phase*: acked —
the client polls at the same period with the same request marked
``rpc_poll``.  A poll fetches the cached reply once the handler has
answered and gets nothing while it waits: its caller was acked already,
so an ack would tell it nothing (Birrell and Nelson's rule).  A poll that
reaches a restarted server, whose cache is gone, runs the handler again.
Both are requests of a live call, never stale.
"""

from __future__ import annotations

import itertools
from typing import (Any, Callable, Dict, FrozenSet, Generator, List, Optional,
                    Sequence, Set, Tuple)

from repro.cluster.message import Message
from repro.cluster.node import Node
from repro.errors import (
    ClusterError,
    DeadlockDetected,
    InvalidActionState,
    LockRefused,
    LockTimeout,
    NameNotBound,
    ObjectNotFound,
    PrepareFailed,
    ReproError,
    RpcTimeout,
)
from repro.obs.tracing import UNKEPT, Tracer
from repro.sim.kernel import SimEvent

#: handler(message, respond) — respond(ok, value) completes the rpc.
Responder = Callable[[bool, Any], None]
Handler = Callable[[Message, Responder], None]

_REPLY_KIND = "rpc_reply"
_ACK_KIND = "rpc_ack"
#: one network message carrying several sub-requests for the same node;
#: dispatched server-side in list order, deduplicated and answered as one.
BATCH_KIND = "rpc_batch"
#: request field: sequence numbers of the caller's other calls to the same
#: node still pending when the request was first sent (absent: none)
_LIVE_KEY = "rpc_live"
#: request field: the call was acked, this copy is a completion-phase poll
_POLL_KEY = "rpc_poll"

#: error kinds a server can return and the exception raised client-side.
#: Ordered most-specific-first: error_kind_for picks the first isinstance.
_ERROR_CLASSES = {
    "lock_refused": LockRefused,
    "lock_timeout": LockTimeout,
    "deadlock": DeadlockDetected,
    "object_not_found": ObjectNotFound,
    "name_not_bound": NameNotBound,
    "prepare_failed": PrepareFailed,
    "invalid_state": InvalidActionState,
    "cluster": ClusterError,
}


def error_kind_for(error: BaseException) -> str:
    for kind, cls in _ERROR_CLASSES.items():
        if isinstance(error, cls):
            return kind
    return "cluster"


class RemoteError(ReproError):
    """Fallback when the server's error kind has no specific class."""


def _rebuild_error(kind: str, text: str) -> ReproError:
    cls = _ERROR_CLASSES.get(kind)
    if cls is DeadlockDetected:
        error = DeadlockDetected()
        error.args = (text,)
        return error
    if cls is not None:
        return cls(text)
    return RemoteError(f"{kind}: {text}")


def epoch_of(rpc_id: str) -> int:
    """The caller's epoch an rpc id (or a batch sub-call's) names."""
    return int(rpc_id.rsplit(":", 2)[1])


class _Caller:
    """What a server remembers of one caller node's rpcs: its epoch, the
    highest sequence seen from it, the live set that request carried, and
    by sequence each live call it has heard of — the reply, or None while
    the handler still executes."""

    __slots__ = ("epoch", "high", "live", "replies")

    def __init__(self, epoch: int):
        self.epoch = epoch
        self.high = 0
        self.live: FrozenSet[int] = frozenset()
        self.replies: Dict[int, Optional[Dict[str, Any]]] = {}

    def admit(self, seq: int, live: Sequence[int]) -> bool:
        """Is call ``seq`` still live?  A new high-water mark adopts its
        request's live set and evicts the replies that set no longer names
        (a scan of this caller's entries, never of the whole cache: they
        are its live calls plus the last one)."""
        if seq > self.high:
            self.high, self.live = seq, frozenset(live)
            if self.replies:
                for finished in self.replies.keys() - self.live:
                    del self.replies[finished]
            return True
        return self.is_live(seq)

    def is_live(self, seq: int) -> bool:
        return seq == self.high or seq in self.live


class _Call:
    """What a caller remembers of one outstanding rpc: the reply once it
    came, whether the server acked the request, and the event its process
    waits on — one per attempt or poll, woken ``True`` by the reply or
    the ack and ``False`` by its deadline."""

    __slots__ = ("reply", "acked", "wake")

    def __init__(self):
        self.reply: Optional[Dict[str, Any]] = None
        self.acked = False
        self.wake: Optional[SimEvent] = None


def _expire(wake: SimEvent) -> None:
    """A wait's deadline; a no-op once the server was heard from."""
    if not wake.settled:
        wake.trigger(False)


class RpcTransport:
    """One node's RPC endpoint: client calls and server handlers."""

    def __init__(self, node: Node, observability, *,
                 default_timeout: float, default_retries: int,
                 default_completion_timeout: float):
        self.node = node
        self.kernel = node.kernel
        #: the cluster's hub; every RPC is spanned and timed through it
        self.obs = observability
        self.default_timeout = default_timeout
        self.default_retries = default_retries
        #: how long to wait for the reply once the server has ACKed the
        #: request — only handlers that wait (lock queues) are ever ACKed.
        self.default_completion_timeout = default_completion_timeout
        self._handlers: Dict[str, Handler] = {}
        self._pending: Dict[str, _Call] = {}
        #: destination -> sequence numbers of the calls to it still pending
        self._live: Dict[str, Set[int]] = {}
        self._rpc_seq = itertools.count(1)
        node.add_dispatcher(self._dispatch)

    def pending_count(self) -> int:
        """RPCs issued from this transport still awaiting a reply.

        A read-only depth probe for the perf sampler and the introspection
        layer; counts calls in either phase (awaiting ACK or awaiting the
        completion reply).
        """
        return len(self._pending)

    # -- server side -------------------------------------------------------------

    def register(self, kind: str, handler: Handler) -> None:
        if kind in self._handlers:
            raise ClusterError(f"handler for {kind!r} already registered")
        self._handlers[kind] = handler

    def _dispatch(self, message: Message) -> bool:
        if message.kind == _REPLY_KIND:
            return self._accept_reply(message)
        if message.kind == _ACK_KIND:
            return self._accept_ack(message)
        batch = message.kind == BATCH_KIND
        rpc_id = message.payload.get("rpc_id")
        if rpc_id is None or not (batch or message.kind in self._handlers):
            return False
        caller, seq = self._caller(message, rpc_id)
        if caller is None:
            return True  # stale: its caller finished the call, nobody asks
        replies = caller.replies
        duplicate = seq in replies
        if duplicate:
            cached = replies[seq]
            if cached is not None:
                self.node.send(message.src, _REPLY_KIND, cached,
                               reply_to=message.msg_id)
                return True
        else:
            replies[seq] = None  # executing

            def send(reply: Dict[str, Any]) -> None:
                if caller.is_live(seq):  # else admit() already evicted it
                    replies[seq] = reply
                self.node.send(message.src, _REPLY_KIND, reply,
                               reply_to=message.msg_id)

            if batch:
                self._serve_batch(message, rpc_id, send)
            else:
                self._serve(message, rpc_id, (
                    Tracer.extract(message.payload) if self.obs.spanning()
                    else UNKEPT), send)
        # the reply is the ack.  Only a request still executing — its handler
        # waits (a queued lock), or this is a duplicate of one — is acked,
        # so the client stops retransmitting and waits for the reply: a
        # duplicate at once, a first delivery half a timeout from now, if
        # it still executes then (most lock waits end sooner).  A poll is
        # not: its caller was acked already.  (A node that crashed inside
        # the handler is silent.)
        if (seq in replies and replies[seq] is None and self.node.alive
                and _POLL_KEY not in message.payload):
            if duplicate:
                self._ack(message, rpc_id)
            else:
                self.kernel.schedule(self.default_timeout / 2,
                                     self._ack_if_executing, message,
                                     rpc_id, caller, seq, self.node.epoch)
        return True

    def _ack(self, message: Message, rpc_id: str) -> None:
        self.node.send(message.src, _ACK_KIND, {"rpc_id": rpc_id},
                       reply_to=message.msg_id)

    def _ack_if_executing(self, message: Message, rpc_id: str,
                          caller: _Caller, seq: int, epoch: int) -> None:
        """The deferred ack of a first delivery: sent only if the node
        still runs in ``epoch``, still remembers ``caller`` and its call
        ``seq`` is still live and executing."""
        if (self.node.alive and self.node.epoch == epoch
                and self.node.volatile.get("rpc_cache", {}).get(
                    message.src) is caller
                and caller.replies.get(seq, ()) is None):
            self._ack(message, rpc_id)

    def _caller(self, message: Message,
                rpc_id: str) -> Tuple[Optional[_Caller], int]:
        """The sender's memory and the request's sequence number; no
        memory when the request is stale (see the module docstring)."""
        _node, epoch_text, seq_text = rpc_id.rsplit(":", 2)
        epoch, seq = int(epoch_text), int(seq_text)
        # volatile: a crash clears it, so every request looks it up afresh
        callers = self.node.volatile.setdefault("rpc_cache", {})
        caller = callers.get(message.src)
        if caller is None or caller.epoch != epoch:
            if caller is not None and caller.epoch > epoch:
                return None, seq
            caller = callers[message.src] = _Caller(epoch)
        if not caller.admit(seq, message.payload.get(_LIVE_KEY, ())):
            return None, seq
        return caller, seq

    def _serve(self, message: Message, rpc_id: str, parent_span: Any,
               done: Callable[[Dict[str, Any]], None]) -> None:
        """Serve one request — a plain RPC or one sub-request of a batch:
        run its handler under a ``serve:<kind>`` span and hand the reply
        record to ``done`` exactly once.  No span is built when
        ``parent_span`` is :data:`~repro.obs.tracing.UNKEPT`: the hub was
        asked once for the request, and nobody keeps or reads spans."""
        # covers receipt to response (lock waits and all), parented on the
        # caller's span carried in the payload, or on the batch's span
        span = parent_span
        if span is not UNKEPT:
            span = self.obs.span(
                f"serve:{message.kind}", parent=parent_span,
                kind="server", node=self.node.name, src=message.src,
            )
        answered = False

        def respond(ok: bool, value: Any = None) -> None:
            nonlocal answered
            if answered or not self.node.alive:
                return  # answered already, or the node died while handling
            answered = True
            if ok:
                reply = {"rpc_id": rpc_id, "ok": True, "value": value}
            else:
                reply = {"rpc_id": rpc_id, "ok": False,
                         "error_kind": error_kind_for(value),
                         "error": str(value)}
            if span is not UNKEPT:
                span.set(ok=ok).finish()
            done(reply)

        handler = self._handlers.get(message.kind)
        try:
            if handler is None:
                raise ClusterError(f"no handler for batched {message.kind!r}")
            handler(message, respond)
        except ReproError as error:
            if not self.node.alive:
                raise  # crashed mid-handler: no later sub-request runs
            respond(False, error)
        except Exception as error:
            # A buggy handler must not wedge the rpc id: if the exception
            # escaped here the call would stay executing forever, every
            # retransmit would be ACKed but never answered, and the client
            # would burn its whole completion timeout.  Answer with a
            # cluster error instead (answering ends the execution), and
            # count it: a crashed handler is a bug, even if the caller
            # copes with the error.
            self.obs.count("rpc_handler_crashes_total", kind=message.kind)
            respond(False, ClusterError(
                f"handler for {message.kind!r} crashed: {error!r}"
            ))

    def _serve_batch(self, message: Message, rpc_id: str,
                     done: Callable[[Dict[str, Any]], None]) -> None:
        """Serve a :data:`BATCH_KIND` message: several sub-requests in one
        network message.

        Sub-requests are dispatched to their registered handlers in list
        order (effects of synchronous handlers are therefore ordered), each
        under its own rpc id; the batch is deduplicated, cached and
        answered as one, with the list of sub-replies, when every
        sub-handler has responded.  Handlers that respond later (lock
        waits) simply delay the combined reply.
        """
        calls = message.payload.get("calls", [])
        self.obs.observe("rpc_batch_size", len(calls), node=self.node.name)
        span = UNKEPT
        if self.obs.spanning():
            span = self.obs.span(
                f"serve:{BATCH_KIND}",
                parent=Tracer.extract(message.payload),
                kind="server", node=self.node.name, src=message.src,
                calls=len(calls),
            )
        sub_replies: List[Optional[Dict[str, Any]]] = [None] * len(calls)
        answered = False

        def gather() -> None:
            nonlocal answered
            if answered or None in sub_replies or not self.node.alive:
                return
            answered = True
            if span is not UNKEPT:
                span.finish()
            done({"rpc_id": rpc_id, "ok": True, "value": list(sub_replies)})

        for index, sub in enumerate(calls):
            def file(reply: Dict[str, Any], index: int = index) -> None:
                sub_replies[index] = reply
                gather()

            self._serve(Message(
                src=message.src, dst=message.dst, kind=sub["kind"],
                payload=sub["payload"], msg_id=message.msg_id,
                reply_to=message.reply_to,
            ), sub["payload"].get("rpc_id", f"{rpc_id}/{index}"), span, file)
        gather()

    # -- client side -----------------------------------------------------------------

    def _accept_reply(self, message: Message) -> bool:
        call = self._pending.pop(message.payload.get("rpc_id"), None)
        if call is not None:  # else a late or duplicate reply
            call.reply = message.payload
            if not call.wake.settled:
                call.wake.trigger(True)
        return True

    def _accept_ack(self, message: Message) -> bool:
        call = self._pending.get(message.payload.get("rpc_id"))
        if call is not None and not call.acked:
            call.acked = True
            if not call.wake.settled:
                call.wake.trigger(True)
        return True

    def _arm(self, call: _Call, delay: float) -> SimEvent:
        """A fresh event for ``call``'s process to wait on, with its
        deadline ``delay`` from now."""
        wake = call.wake = self.kernel.event()
        self.kernel.schedule(delay, _expire, wake)
        return wake

    def _fresh_rpc_id(self) -> Tuple[int, str]:
        seq = next(self._rpc_seq)
        return seq, f"{self.node.name}:{self.node.epoch}:{seq}"

    def call(self, dst: str, kind: str, payload: Dict[str, Any],
             timeout: Optional[float] = None,
             retries: Optional[int] = None,
             completion_timeout: Optional[float] = None,
             trace_parent: Any = None
             ) -> Generator[Any, Any, Any]:
        """Generator: perform one RPC; returns the reply value.

        Two phases.  Until the server is heard from — its reply, or an
        ACK if the handler is still waiting half the server's timeout
        after the request arrived — the request is retransmitted every
        ``timeout`` units, up to ``retries`` extra times; a synchronous
        handler's lost reply is recovered here, from the server's reply
        cache.  Once ACKed, the call waits up to ``completion_timeout``
        for the reply, polling every ``timeout`` (polls are never acked)
        — long-running operations (lock waits) sit here outside the
        ``retries`` budget, and a lost reply is fetched from the cache by
        the next poll.
        Raises :class:`RpcTimeout` on either phase's exhaustion
        (``unacknowledged`` includes "delivered, but every reply lost"),
        or the reconstructed remote error for an unsuccessful reply.

        ``trace_parent`` (a Span or SpanContext) parents the call's client
        span; the span's context rides in the request payload so the
        server-side handler span stitches underneath it.
        """
        seq, rpc_id = self._fresh_rpc_id()
        request = dict(payload)
        request["rpc_id"] = rpc_id
        reply = yield from self._perform(
            dst, kind, request, seq, timeout=timeout, retries=retries,
            completion_timeout=completion_timeout, trace_parent=trace_parent,
        )
        if reply["ok"]:
            return reply.get("value")
        raise _rebuild_error(reply.get("error_kind", "cluster"),
                             reply.get("error", ""))

    def call_many(self, dst: str, calls: Sequence[Tuple[str, Dict[str, Any]]],
                  timeout: Optional[float] = None,
                  retries: Optional[int] = None,
                  completion_timeout: Optional[float] = None,
                  trace_parent: Any = None
                  ) -> Generator[Any, Any, List[Tuple[bool, Any]]]:
        """Generator: send several sub-requests to one node in a single
        network message (see :data:`BATCH_KIND`).

        ``calls`` is a sequence of ``(kind, payload)`` pairs; the server
        dispatches them in order, each with its own rpc id, and answers
        once with all sub-replies.  Returns a list aligned with
        ``calls`` of ``(ok, value)`` pairs — ``(True, value)`` for a
        successful sub-call, ``(False, error)`` with the reconstructed
        remote error otherwise — so one failing sub-call never masks the
        outcome of its batch-mates.  Raises :class:`RpcTimeout` only when
        the batch itself could not be delivered/answered.
        """
        seq, rpc_id = self._fresh_rpc_id()
        request = {
            "rpc_id": rpc_id,
            "calls": [
                {"kind": kind,
                 "payload": dict(payload, rpc_id=f"{rpc_id}/{index}")}
                for index, (kind, payload) in enumerate(calls)
            ],
        }
        reply = yield from self._perform(
            dst, BATCH_KIND, request, seq, timeout=timeout,
            retries=retries, completion_timeout=completion_timeout,
            trace_parent=trace_parent,
        )
        if not reply["ok"]:  # pragma: no cover - batches carry errors inline
            raise _rebuild_error(reply.get("error_kind", "cluster"),
                                 reply.get("error", ""))
        outcomes: List[Tuple[bool, Any]] = []
        for sub in reply.get("value", []):
            if sub.get("ok"):
                outcomes.append((True, sub.get("value")))
            else:
                outcomes.append((False, _rebuild_error(
                    sub.get("error_kind", "cluster"), sub.get("error", ""))))
        return outcomes

    def _perform(self, dst: str, kind: str, request: Dict[str, Any],
                 seq: int,
                 timeout: Optional[float] = None,
                 retries: Optional[int] = None,
                 completion_timeout: Optional[float] = None,
                 trace_parent: Any = None
                 ) -> Generator[Any, Any, Dict[str, Any]]:
        """Shared retransmit/ack/poll machinery; returns the raw reply
        payload (``{"ok": ..., ...}``) or raises :class:`RpcTimeout`.

        The call is live, and its sequence in every later request's
        ``rpc_live`` to ``dst``, from here until it returns or raises.

        Each attempt and each poll waits on one event, woken by whichever
        of the reply, the ack and its deadline comes first.  Right after
        every send the call's record is read, a reply before an ack.  So
        on a tie — a reply or ack that lands at the deadline's instant,
        after the deadline ran — the request is sent once more and then
        the reply (or the ack) is used.  A deadline that comes after its
        wait was answered stays queued and does nothing: the clock moves
        as if it woke someone.  The ``rpc:<kind>`` span, and the context
        it puts in the request, exist only while the hub keeps or reads
        spans (asked once per call)."""
        timeout = timeout if timeout is not None else self.default_timeout
        retries = retries if retries is not None else self.default_retries
        completion_timeout = (
            completion_timeout if completion_timeout is not None
            else self.default_completion_timeout
        )
        rpc_id = request["rpc_id"]
        call = self._pending[rpc_id] = _Call()
        # taken once, at the first send: a retransmission carries the same
        # set, so a call a server has once seen finished never looks live
        # again (sequence order is first-send order)
        live = self._live.get(dst)
        if live is None:
            live = self._live[dst] = set()
        elif live:
            request[_LIVE_KEY] = list(live)
        live.add(seq)
        span = UNKEPT
        if self.obs.spanning():
            span = self.obs.span(f"rpc:{kind}", parent=trace_parent,
                                 kind="client", node=self.node.name, dst=dst)
            Tracer.inject(span, request)
        started = self.kernel.now
        try:
            for attempt in range(retries + 1):
                if attempt:
                    span.event("retransmit", attempt=attempt)
                self.node.send(dst, kind, request)
                wake = self._arm(call, timeout)
                if call.reply is not None or call.acked or (yield wake):
                    break
            else:
                raise self._timed_out(span, kind, "ack", (
                    f"{self.node.name}: rpc {kind} to {dst} unacknowledged "
                    f"after {retries + 1} attempts"
                ))
            # completion phase: poll periodically — a lost reply is re-sent
            # from the server's reply cache on the next poll.
            heard = call.reply is not None
            request[_POLL_KEY] = True
            remaining = completion_timeout
            while not heard:
                if remaining <= 0:
                    raise self._timed_out(span, kind, "completion", (
                        f"{self.node.name}: rpc {kind} to {dst} acknowledged "
                        f"but no reply within {completion_timeout}"
                    ))
                wait = min(timeout, remaining)
                wake = self._arm(call, wait)
                heard = call.reply is not None or (yield wake)
                remaining -= wait
                if not heard and remaining > 0:
                    self.node.send(dst, kind, request)
            reply = call.reply
            self.obs.observe("rpc_latency", self.kernel.now - started,
                             kind=kind)
            if span is not UNKEPT:
                span.set(ok=reply["ok"])
            return reply
        finally:
            if span is not UNKEPT:
                span.finish()  # on every path: reply, timeout, kill, error
            self._pending.pop(rpc_id, None)
            live.discard(seq)

    def _timed_out(self, span: Any, kind: str, phase: str,
                   text: str) -> RpcTimeout:
        """Count a call that ran out of ``phase``; the error to raise."""
        self.obs.count("rpc_timeouts_total", kind=kind, phase=phase)
        span.set(ok=False, error="timeout")
        return RpcTimeout(text)

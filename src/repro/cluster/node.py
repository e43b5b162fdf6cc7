"""Fail-silent nodes (§2).

A node either works or has crashed; a crash kills its processes, wipes its
volatile memory (including lock tables and reply caches), and bumps its
epoch on restart.  Stable storage — the object store and the write-ahead
log — survives.  Services register a message dispatcher and a recovery
hook; restart runs recovery before the node serves again.

What a node keeps does not grow with the commits it has seen.  Its reply
caches hold replies of live calls only (``transport.py``), and every
``CHECKPOINT_EVERY`` protocol appends (``txn.py``) a checkpoint cuts its
log and its transaction table down to the pending transactions: between
two messages, so no handler ever holds an entry a checkpoint dropped.
Restart replays the log into the table; nothing else refolds it.

A node also crashes where the network's fault plan says: just before or
just after an append of its transaction table.  The ``NodeDown`` raised
there unwinds the whole dispatch, an RPC batch's later sub-requests
included, and ``_on_message`` swallows it (or any error a handler raises
once its node is down): a dead node runs nothing more.

A node sends what one dispatch owes each destination as one network
message.  While ``_on_message`` handles a message, :meth:`Node.send`
queues in an outbox; when the dispatch ends — its return, the ``NodeDown``
unwind of a crash point, or :meth:`Node.crash` before the node goes down —
the outbox is flushed in first-send order of destination: a lone message
leaves unchanged, two or more leave as one :data:`BUNDLE_KIND` message
carrying them in send order (a commit's reply and the grant replies its
lock release hands to queued waiters on the same home).  An arriving
bundle is unpacked and each inner message dispatched in order, each in a
dispatch of its own.  Sends from process steps and timers are not inside a
dispatch and go straight to the network.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.cluster.message import Message
from repro.cluster.network import Network
from repro.cluster.txn import TxnTable
from repro.errors import NodeDown, ReproError
from repro.sim.kernel import Kernel, Process
from repro.store.stable import StableStore
from repro.store.wal import WriteAheadLog

#: one network message carrying two or more messages of one dispatch to
#: one destination, as ``[kind, payload, msg_id, reply_to]`` in send order;
#: it goes by its first message's id
BUNDLE_KIND = "bundle"


class Node:
    """One workstation: stable + volatile storage, an inbox, services."""

    def __init__(self, name: str, kernel: Kernel, network: Network):
        self.name = name
        self.kernel = kernel
        self.network = network
        self.alive = True
        self.crash_count = 0
        # stable: survives crashes
        self.stable_store = StableStore()
        self.wal = WriteAheadLog()
        #: what this node knows about every transaction on ``wal`` — the
        #: log's in-memory fold (volatile: restart replays it from the log)
        self.txns = TxnTable(self.wal, clock=lambda: kernel.now)
        self.txns.crash_point = self._crash_point
        self._stable_meta: Dict[str, Any] = {"epoch": 1}
        # volatile: wiped by crashes
        self.volatile: Dict[str, Any] = {}
        self._processes: List[Process] = []
        self._dispatchers: List[Callable[[Message], bool]] = []
        self._recovery_hooks: List[Callable[[], None]] = []
        #: what the running dispatch sent, in send order (None outside a
        #: dispatch: sends go straight to the network)
        self._outbox: Optional[List[Message]] = None
        network.attach(name, self._on_message)

    @property
    def epoch(self) -> int:
        """Incarnation number; bumped at every restart (stable)."""
        return self._stable_meta["epoch"]

    # -- services ---------------------------------------------------------------

    def add_dispatcher(self, dispatcher: Callable[[Message], bool]) -> None:
        """Register a message handler; it returns True if it consumed the message."""
        self._dispatchers.append(dispatcher)

    def add_recovery_hook(self, hook: Callable[[], None]) -> None:
        """Run at restart, before the node serves traffic."""
        self._recovery_hooks.append(hook)

    def spawn(self, body, name: str = "") -> Process:
        """Start a process that dies with the node."""
        if not self.alive:
            raise NodeDown(f"{self.name} is down")
        process = self.kernel.spawn(body, name=f"{self.name}/{name or 'proc'}")
        self._processes.append(process)
        self._processes = [p for p in self._processes if p.alive]
        return process

    # -- messaging ----------------------------------------------------------------

    def send(self, dst: str, kind: str, payload: Optional[Dict[str, Any]] = None,
             msg_id: int = 0, reply_to: int = 0) -> Message:
        if not self.alive:
            raise NodeDown(f"{self.name} is down")
        message = Message(self.name, dst, kind, payload or {},
                          msg_id or self.network.fresh_msg_id(), reply_to)
        outbox = self._outbox
        if outbox is None:
            self.network.send(message)
        else:
            outbox.append(message)
        return message

    def _flush(self) -> None:
        """Send the running dispatch's outbox, one message per destination."""
        outbox, self._outbox = self._outbox, None
        if not outbox:
            return
        if len(outbox) == 1:  # the usual case: nothing to group
            self.network.send(outbox[0])
            return
        by_dst: Dict[str, List[Message]] = {}
        for message in outbox:
            by_dst.setdefault(message.dst, []).append(message)
        for dst, messages in by_dst.items():
            if len(messages) == 1:
                self.network.send(messages[0])
                continue
            self.network.send(Message(self.name, dst, BUNDLE_KIND, {
                "messages": [[m.kind, m.payload, m.msg_id, m.reply_to]
                             for m in messages]}, messages[0].msg_id))

    def _on_message(self, message: Message) -> None:
        if message.kind == BUNDLE_KIND:
            for kind, payload, msg_id, reply_to in message.payload["messages"]:
                self._on_message(Message(message.src, message.dst, kind,
                                         payload, msg_id, reply_to))
            return
        if not self.alive:
            return
        self._outbox = []
        try:
            if self.txns.checkpoint_due:
                self.txns.checkpoint()
            for dispatcher in self._dispatchers:
                if dispatcher(message):
                    return
            # Unconsumed messages are dropped; fail-silence means no NAKs.
        except ReproError:
            if self.alive:
                raise
            # died mid-handler (a crash point): it runs nothing more
        finally:
            self._flush()

    def _crash_point(self, kind: str, after: bool) -> None:
        """Crash now if the fault plan says so, unwinding the handler."""
        if self.network.faults.crashes(self.name, kind, after):
            self.crash()
            raise NodeDown(f"{self.name} crashed at a log append")

    # -- failure injection -------------------------------------------------------------

    def crash(self) -> None:
        """Fail-silent crash: processes die, volatile state vanishes."""
        if not self.alive:
            return
        self._flush()  # what the running dispatch sent before the crash
        self.alive = False
        self.crash_count += 1
        self.network.set_up(self.name, False)
        processes, self._processes = self._processes, []
        for process in processes:
            process.kill()
        self.volatile.clear()

    def restart(self) -> None:
        """Repair (§2: 'repaired within a finite amount of time').

        Bumps the epoch, replays the log into the transaction table, runs
        recovery hooks (log-driven), then rejoins the network.
        """
        if self.alive:
            return
        self._stable_meta["epoch"] += 1
        self.alive = True
        self.txns.refold()
        for hook in self._recovery_hooks:
            hook()
        self.network.set_up(self.name, True)

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"<Node {self.name} {state} epoch={self.epoch}>"

"""The per-node transaction state table: the commit protocol's one rulebook.

Beside its write-ahead log every node keeps a :class:`TxnTable`: the state
of each transaction the log knows, once per role — *participant* (this
node's object server voted on it) and *coordinator* (a client here drove
it).  The table is the in-memory **fold of the live log**:
:meth:`TxnTable.advance` is the only way protocol records are appended and
updates the index in the same step, so "what do we know about txn X" is a
dictionary lookup, never a log scan.

What may happen to a transaction is :data:`TRANSITIONS` and nothing else
(docs/PROTOCOL.md §3.5 renders it and explains the states).  An edge that
logs no record is *answer-only*; a triple without an edge is refused.  The
decided participant states are *absorbing*: a decision is carried out once,
by whoever delivers it first (coordinator, reaper or in-doubt resolver).
A coordinator's COMMIT ends once every participant it owes has the
decision, whoever delivered it: :meth:`TxnTable.acked` is told of each
delivery and takes the ``end`` edge.

Data and pure functions only: the processes that drive the edges live in
``client.py``/``server.py``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Collection, Dict, List, Optional, Set, Tuple

from repro.cluster.message import decode_uid
from repro.errors import ClusterError
from repro.store.wal import CHECKPOINT_KIND
from repro.util.uid import Uid

PARTICIPANT = "participant"
COORDINATOR = "coordinator"

#: protocol records a node appends between two checkpoints.  A checkpoint
#: looks once at what the log holds — at most K records plus the pending
#: entries' records — so its cost is O(1) per append, and between two of
#: them the log and the table grow by at most K.  256 caps them at a few
#: hundred records per node and spreads each checkpoint over ~85 commits
#: at a coordinator, which appends three records per commit.
CHECKPOINT_EVERY = 256


class TxnState(enum.Enum):
    """Where a transaction stands on one node, in one role: participant
    ``NONE -> PREPARED -> COMMITTED | ABORTED`` (decided = absorbing),
    coordinator ``NONE -> DELEGATED -> COMMIT | ABORT``, ``COMMIT -> ENDED``.
    ``NONE`` is "nothing on the log", which presumed abort covers."""

    NONE = "none"
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"
    DELEGATED = "delegated"
    COMMIT = "commit"
    ABORT = "abort"
    ENDED = "ended"


class IllegalTransition(ClusterError):
    """An event the transition table has no edge for in the current state."""


#: what can be asked of a transaction, per role, in table and doc order
EVENTS: Dict[str, Tuple[str, ...]] = {
    PARTICIPANT: ("prepare", "decide", "commute", "read_only",
                  "commit", "abort", "outcome_query"),
    COORDINATOR: ("delegate", "decide_commit", "decide_abort", "end"),
}


@dataclass(frozen=True)
class PreparePath:
    """What one participant prepare event means to the coordinator."""

    #: the participant event of :data:`EVENTS` a ``txn_prepare`` raises
    event: str
    #: the payload flag it travels under (None: the bare prepare)
    flag: Optional[str]
    #: the affirmative vote; anything else is a refusal of the path
    vote: str
    #: does the coordinator's decision edge wait for this vote?  A vote
    #: nothing waits for is final where it is cast: the participant let
    #: the colour's locks go with it
    gates: bool
    #: does the participant log the decision itself — one
    #: ``committed{delegated}`` record the coordinator forgets lazily, the
    #: ``finish`` routing riding along, no phase two?
    takes_decision: bool


#: participant prepare event -> its path, in :data:`EVENTS` order
#: (docs/PROTOCOL.md §2 renders it)
PATHS: Dict[str, PreparePath] = {path.event: path for path in (
    PreparePath("prepare", None, "commit", True, False),
    PreparePath("decide", "decide", "commit", True, True),
    PreparePath("commute", "commute", "commute", False, True),
    PreparePath("read_only", "read_only", "read-only", False, False),
)}


def path_of(payload: Dict[str, Any]) -> PreparePath:
    """The path a ``txn_prepare`` payload travels on, by its flag."""
    return next((path for path in PATHS.values()
                 if path.flag and payload.get(path.flag)), PATHS["prepare"])


_S = TxnState
#: (role, state, event) -> (next state, WAL record kind or None), in doc
#: order; docs/PROTOCOL.md §3.5 gives the reason for every edge
TRANSITIONS: Dict[Tuple[str, TxnState, str],
                  Tuple[TxnState, Optional[str]]] = {
    (PARTICIPANT, _S.NONE, "prepare"): (_S.PREPARED, "prepared"),
    (PARTICIPANT, _S.NONE, "decide"): (_S.COMMITTED, "committed"),
    (PARTICIPANT, _S.NONE, "commute"): (_S.COMMITTED, "committed"),
    (PARTICIPANT, _S.NONE, "read_only"): (_S.NONE, None),
    (PARTICIPANT, _S.NONE, "commit"): (_S.NONE, None),
    (PARTICIPANT, _S.NONE, "abort"): (_S.ABORTED, "aborted"),
    (PARTICIPANT, _S.NONE, "outcome_query"): (_S.ABORTED, "aborted"),
    (PARTICIPANT, _S.PREPARED, "prepare"): (_S.PREPARED, None),
    (PARTICIPANT, _S.PREPARED, "commit"): (_S.COMMITTED, "committed"),
    (PARTICIPANT, _S.PREPARED, "abort"): (_S.ABORTED, "aborted"),
}
# absorbing: whatever arrives after the decision is answered from it
TRANSITIONS.update({
    (PARTICIPANT, decided, event): (decided, None)
    for decided in (_S.COMMITTED, _S.ABORTED)
    for event in EVENTS[PARTICIPANT]
})
TRANSITIONS.update({
    (COORDINATOR, _S.NONE, "delegate"): (_S.DELEGATED, "coord_delegated"),
    (COORDINATOR, _S.NONE, "decide_commit"): (_S.COMMIT, "coord_commit"),
    (COORDINATOR, _S.NONE, "decide_abort"): (_S.NONE, None),
    (COORDINATOR, _S.DELEGATED, "decide_commit"): (_S.COMMIT, "coord_commit"),
    (COORDINATOR, _S.DELEGATED, "decide_abort"): (_S.ABORT, "coord_abort"),
    (COORDINATOR, _S.COMMIT, "decide_commit"): (_S.COMMIT, None),
    (COORDINATOR, _S.COMMIT, "end"): (_S.ENDED, "coord_end"),
    (COORDINATOR, _S.ABORT, "decide_abort"): (_S.ABORT, None),
    (COORDINATOR, _S.ENDED, "decide_commit"): (_S.ENDED, None),
})

#: WAL record kind -> (role, state that record puts its transaction in):
#: the fold step (every edge logging a kind agrees — pinned by a test)
STATE_OF_RECORD: Dict[str, Tuple[str, TxnState]] = {
    record: (role, following)
    for (role, _state, _event), (following, record) in TRANSITIONS.items()
    if record is not None
}

_DECISIONS = {_S.COMMITTED: "commit", _S.COMMIT: "commit",
              _S.ENDED: "commit", _S.ABORTED: "abort", _S.ABORT: "abort",
              _S.NONE: "abort"}  # nothing on the log: presumed abort


def decision_of(state: TxnState) -> Optional[str]:
    """The answer ``state`` gives a decision/outcome query: ``commit``,
    ``abort``, or None while the outcome is open (PREPARED, DELEGATED)."""
    return _DECISIONS.get(state)


def render_table() -> str:
    """:data:`TRANSITIONS` as the markdown table of docs/PROTOCOL.md §3.5."""
    return "\n".join(
        ["| role | state | event | next state | log record |",
         "|---|---|---|---|---|"]
        + [f"| {role} | {state.value} | {event} | {following.value} | "
           f"{f'`{record}`' if record else '—'} |"
           for (role, state, event), (following, record)
           in TRANSITIONS.items()])


def render_paths() -> str:
    """:data:`PATHS` as the markdown table that opens docs/PROTOCOL.md §2."""
    word = {True: "yes", False: "no"}
    return "\n".join(
        ["| path | payload flag | affirmative vote | decision waits "
         "| participant takes the decision |",
         "|---|---|---|---|---|"]
        + [f"| {path.event} | {f'`{path.flag}`' if path.flag else '—'} | "
           f"`{path.vote}` | {word[path.gates]} | "
           f"{word[path.takes_decision]} |" for path in PATHS.values()])


@dataclass
class TxnEntry:
    """One transaction in one role: its state plus what its records say."""

    role: str
    txn_id: str
    state: TxnState = TxnState.NONE
    #: lsn of the record that put the entry in ``state``
    lsn: int = 0
    #: union of the payloads of the transaction's live records, as logged
    payload: Dict[str, Any] = field(default_factory=dict)
    # volatile annotations (not on the log, not part of equality): when the
    # entry reached ``state``; the colour being committed; and whether a
    # PREPARED was recovered from the log (objects fenced, resolver running)
    tick: float = field(default=0.0, compare=False)
    colour: Any = field(default=None, compare=False)
    in_doubt: bool = field(default=False, compare=False)

    @property
    def object_uids(self) -> List[Uid]:
        """The objects whose shadows the transaction stabilised here."""
        return [decode_uid(raw) for raw in self.payload.get("object_uids", ())]

    def pending(self, forgotten: Collection[str] = ()) -> bool:
        """Must a checkpoint keep this entry's records?  Yes while somebody
        may need the answer: undecided PREPARED, unresolved DELEGATED,
        unacknowledged COMMIT, and a delegated COMMITTED — the only durable
        copy of that decision until the coordinator's lazy ``forget``."""
        if self.state in (_S.PREPARED, _S.DELEGATED, _S.COMMIT):
            return True
        return (self.state is _S.COMMITTED
                and bool(self.payload.get("delegated"))
                and self.txn_id not in forgotten)


class TxnTable:
    """``role -> txn_id -> TxnEntry``, always equal to the fold of ``wal``."""

    def __init__(self, wal, clock: Callable[[], float] = lambda: 0.0):
        self.wal = wal
        self._clock = clock
        self._entries: Dict[str, Dict[str, TxnEntry]] = {
            PARTICIPANT: {}, COORDINATOR: {}}
        #: txn_id -> participant entries in PREPARED (promised, undecided)
        self.prepared: Dict[str, TxnEntry] = {}
        #: txn_ids whose delegated commit the coordinator has acknowledged —
        #: lazily, as ``forget`` lists riding later prepares.  Volatile on
        #: purpose: the checkpoint rewrite is the durability point (it
        #: drops a forgotten entry with its records, then empties the set),
        #: so a crash before the next checkpoint loses what it holds.
        self.forgotten: Set[str] = set()
        #: txn_id -> the participants a COMMIT entry still owes its decision:
        #: the ``owed`` list on its records, less the acks :meth:`acked`
        #: was told of since the last fold.  Volatile (a restart owes the
        #: whole list again), and held only while it is not empty
        self.owed: Dict[str, Set[str]] = {}
        #: protocol records appended since the last checkpoint
        self.appended = 0
        #: called with the record kind just before (False) and just after
        #: (True) every append: the node's fault plan may crash it there
        self.crash_point: Callable[[str, bool], None] = lambda *_: None

    @classmethod
    def replay(cls, wal) -> "TxnTable":
        """A fresh table folded from ``wal`` (what a restart would see)."""
        table = cls(wal)
        table.refold()
        return table

    def get(self, role: str, txn_id: str) -> Optional[TxnEntry]:
        """The entry, or None when the log holds nothing for it."""
        return self._entries[role].get(txn_id)

    def state(self, role: str, txn_id: str) -> TxnState:
        """The transaction's state in ``role`` (NONE when unknown)."""
        entry = self._entries[role].get(txn_id)
        return entry.state if entry is not None else TxnState.NONE

    def entries(self, role: str) -> List[TxnEntry]:
        """Every entry of one role (in no particular order)."""
        return list(self._entries[role].values())

    def advance(self, role: str, txn_id: str, event: str,
                **payload: Any) -> Optional[TxnEntry]:
        """Take the ``(role, state, event)`` edge: a logging edge appends
        its record (carrying ``payload``) and returns the updated entry, an
        answer-only edge returns None, no edge raises."""
        state = self.state(role, txn_id)
        edge = TRANSITIONS.get((role, state, event))
        if edge is None:
            raise IllegalTransition(
                f"{role} {txn_id}: no {event!r} edge from {state.value}")
        if edge[1] is None:
            return None
        self.crash_point(edge[1], False)
        self.appended += 1
        # looked up on the log at call time: instrumentation may shadow it
        entry = self._fold(self.wal.append(edge[1], txn_id=txn_id, **payload))
        self.crash_point(edge[1], True)
        return entry

    def _fold(self, record) -> Optional[TxnEntry]:
        """Apply one log record to the index (non-protocol kinds pass)."""
        found = STATE_OF_RECORD.get(record.kind)
        if found is None:
            return None
        role, state = found
        txn_id = record.payload["txn_id"]
        entry = self._entries[role].get(txn_id)
        if entry is None:
            entry = self._entries[role][txn_id] = TxnEntry(role, txn_id)
        entry.state, entry.lsn, entry.tick = state, record.lsn, self._clock()
        entry.payload.update(record.payload)
        if state is TxnState.PREPARED:
            self.prepared[txn_id] = entry
        elif role == PARTICIPANT:
            self.prepared.pop(txn_id, None)
        elif state is TxnState.COMMIT and entry.payload.get("owed"):
            self.owed[txn_id] = set(entry.payload["owed"])
        else:
            self.owed.pop(txn_id, None)
        return entry

    def acked(self, txn_id: str, nodes: Collection[str]) -> bool:
        """Strike ``nodes`` off the participants the COMMIT entry of
        ``txn_id`` still owes; once it owes nobody, take its ``end`` edge —
        the one place ``coord_end`` is logged.  True when this call ended
        it; any other state is answer-only."""
        owed = self.owed.get(txn_id, set())
        owed.difference_update(nodes)
        return (not owed and self.state(COORDINATOR, txn_id) is _S.COMMIT
                and self.advance(COORDINATOR, txn_id, "end") is not None)

    def refold(self) -> None:
        """Rebuild the index from the log as it is now: at restart, which
        also wipes ``forgotten``, the acks ``owed`` was told of and every
        volatile annotation."""
        self._entries = {PARTICIPANT: {}, COORDINATOR: {}}
        self.prepared = {}
        self.owed = {}
        self.forgotten = set()
        for record in self.wal.records():
            self._fold(record)

    @property
    def checkpoint_due(self) -> bool:
        """Have :data:`CHECKPOINT_EVERY` protocol records been appended
        since the last checkpoint?  The node then checkpoints between two
        messages, never inside a handler that holds an entry."""
        return self.appended >= CHECKPOINT_EVERY

    def checkpoint(self) -> Dict[str, int]:
        """Rewrite the log to its marker plus every record of each entry
        :meth:`TxnEntry.pending` keeps, and drop every other entry.

        Every record, not only the latest: an entry's payload is the union
        of its records' (a COMMIT that was DELEGATED first finds its
        ``last_agent`` on the ``coord_delegated`` one).  The table is then
        still the log's fold, so nothing is refolded, and a forgotten
        record is gone for good.  Returns {"dropped": n, "kept": m} for
        observability.  The checkpoint itself is a log record, so recovery
        after a checkpoint sees a well-formed log.
        """
        self.crash_point(CHECKPOINT_KIND, False)
        marker = self.wal.append(CHECKPOINT_KIND)
        self.crash_point(CHECKPOINT_KIND, True)
        # PREPARED entries pend, so ``prepared`` keeps all of its own
        self._entries = {role: {txn_id: entry for txn_id, entry
                                in entries.items()
                                if entry.pending(self.forgotten)}
                         for role, entries in self._entries.items()}
        self.forgotten = set()
        dropped = self.wal.truncate_before(marker.lsn, keep=self._holds)
        self.appended = 0
        return {"dropped": dropped, "kept": len(self.wal)}

    def _holds(self, record) -> bool:
        """Is ``record`` one of an entry's records?"""
        found = STATE_OF_RECORD.get(record.kind)
        return (found is not None
                and record.payload["txn_id"] in self._entries[found[0]])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TxnTable):
            return NotImplemented
        return self._entries == other._entries

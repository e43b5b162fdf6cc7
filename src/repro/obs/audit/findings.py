"""Structured findings produced by the online invariant auditor.

Each finding names the invariant that broke (``kind``), the entities
involved (colour / node / txn / action / object, whichever apply) and the
bus-event sequence numbers that witnessed it, so a violation can be traced
back through the saved event log (``python -m repro.obs audit dump.json``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

#: lock discipline: a grant or inheritance reached an owner that had
#: already started releasing (shrinking phase) — two-phase locking broken.
TWO_PHASE = "two-phase-violation"
#: §5.2 modified locking rules broken at grant time (non-ancestor holder
#: behind an exclusive grant, or a differently-coloured WRITE record).
LOCK_RULE = "locking-rule-violation"
#: §5.3 commit routing: a colour went somewhere other than the closest
#: same-coloured live ancestor (or was made permanent while one existed).
COMMIT_ROUTE = "commit-route-violation"
#: a coordinator decided commit although some participant voted rollback.
COMMIT_AFTER_ROLLBACK = "commit-after-rollback"
#: a participant applied (promoted shadows for) a txn with no commit
#: decision in evidence.
COMMIT_WITHOUT_DECISION = "commit-without-decision"
#: per-colour failure atomicity: stable effects from an aborted colour,
#: or permanence of a colour the action does not possess.
ATOMICITY = "atomicity-violation"
#: a coordinator answered "abort" (presumed abort) for a transaction it
#: had decided to commit and had not yet finished.
PRESUMED_ABORT = "presumed-abort-violated"
#: both commit and abort decisions observed for one transaction.
DECISION_CONFLICT = "decision-conflict"
#: type-specific (semantic) locking: an operation-group lock was granted
#: while a non-ancestor held an incompatible group on the same object.
SEMANTIC_LOCK_RULE = "semantic-lock-rule-violation"
#: per-colour serialization graph contains a cycle.
SERIALIZATION_CYCLE = "serialization-cycle"
#: coordinator logged its end-of-transaction although some participant
#: that voted commit never saw the decision.
IN_DOUBT_AFTER_END = "in-doubt-after-end"
#: a fast-path (piggybacked / one-phase) commit decision was taken while
#: some other participant's affirmative vote was not in evidence.
FAST_PATH_NO_QUORUM = "fast-path-decision-without-quorum"
#: a commute-path (local, no-prepare) commit decision was taken although
#: the colour was not fully commuting at the decider: an applied operation
#: group lacked a commuting-flagged grant, or the action held an exclusive
#: data-mode record in the deciding colour.
COMMUTE_UNSOUND = "commute-decision-not-commuting"

ALL_KINDS = (
    TWO_PHASE,
    LOCK_RULE,
    COMMIT_ROUTE,
    COMMIT_AFTER_ROLLBACK,
    COMMIT_WITHOUT_DECISION,
    ATOMICITY,
    SEMANTIC_LOCK_RULE,
    PRESUMED_ABORT,
    DECISION_CONFLICT,
    SERIALIZATION_CYCLE,
    IN_DOUBT_AFTER_END,
    FAST_PATH_NO_QUORUM,
    COMMUTE_UNSOUND,
)


@dataclass(frozen=True)
class Finding:
    """One detected invariant violation."""

    kind: str
    message: str
    tick: float = 0.0
    colour: str = ""
    node: str = ""
    txn: str = ""
    action: str = ""
    object: str = ""
    event_seqs: Tuple[int, ...] = field(default_factory=tuple)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind, "message": self.message,
                               "tick": self.tick}
        for key in ("colour", "node", "txn", "action", "object"):
            value = getattr(self, key)
            if value:
                out[key] = value
        if self.event_seqs:
            out["event_seqs"] = list(self.event_seqs)
        return out

    def __str__(self) -> str:
        where = " ".join(
            f"{key}={getattr(self, key)}"
            for key in ("colour", "node", "txn", "action", "object")
            if getattr(self, key)
        )
        events = (" events=" + ",".join(str(s) for s in self.event_seqs)
                  if self.event_seqs else "")
        return f"[{self.kind}] {self.message}" + \
            (f" ({where})" if where else "") + events

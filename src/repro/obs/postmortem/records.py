"""Postmortem records: the abort-reason taxonomy and per-action verdicts.

Every finished atomic action gets one :class:`Postmortem`; aborted ones
carry a *reason* from the taxonomy below plus, for lock-induced deaths, a
resolved :class:`BlockerLink` chain naming who stood in the way (object,
colour, holder, hold time).  Records are plain frozen dataclasses with a
``to_dict`` so they travel in ``Observability.save`` dumps and feed the
``python -m repro.obs why`` CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

#: the action was chosen as a deadlock victim (edge-chasing probe or
#: wait-for-graph cycle) and its lock wait was cancelled.
DEADLOCK_VICTIM = "deadlock-victim"
#: a lock wait timed out or was refused while another action held (or was
#: queued ahead for) the object — plain contention, no cycle.
LOCK_CONFLICT = "lock-conflict"
#: a node crash / restart / partition made a participant unreachable or
#: wiped its volatile write set (epoch restart, presumed-abort straggler).
CRASH_PARTITION = "crash-partition"
#: a message was lost or timed out with every involved node alive — the
#: signature of injected network faults rather than process death.
INJECTED_FAULT = "injected-fault"
#: a prepare round ran and some participant answered rollback.
VOTE_ROLLBACK = "vote-rollback"
#: a commit fast path (one-phase, piggybacked decision, commute)
#: had to downgrade and the classic finish then aborted.
FAST_PATH_DOWNGRADE = "fast-path-downgrade"
#: collateral damage: the abort was inherited from a parent or from an
#: earlier failing colour of the same action, or arrived from elsewhere.
CASCADE = "cascade"
#: the application body raised; the runtime aborted on its behalf.
APP_ERROR = "app-error"
#: the application called ``abort()`` with no observed failure first.
EXPLICIT_ABORT = "explicit-abort"
#: attribution fallback — should be absent from any healthy dump.
UNKNOWN = "unknown"

ALL_REASONS = (
    DEADLOCK_VICTIM,
    LOCK_CONFLICT,
    CRASH_PARTITION,
    INJECTED_FAULT,
    VOTE_ROLLBACK,
    FAST_PATH_DOWNGRADE,
    CASCADE,
    APP_ERROR,
    EXPLICIT_ABORT,
    UNKNOWN,
)


@dataclass(frozen=True)
class BlockerLink:
    """One hop in a blocker chain: who was in the way, and how."""

    holder: str                       # uid of the action holding / queued
    object: str
    node: str = ""
    mode: str = ""
    colour: str = ""
    #: "holds" = held the lock when the victim died; "released" = held it
    #: during the wait but let go before the refusal; "queued-ahead" = an
    #: earlier waiter in the FIFO queue; "waits" = transitive hop (the
    #: previous link's holder is itself blocked on this one).
    status: str = "holds"
    since: float = 0.0
    held_for: float = 0.0
    depth: int = 0

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"holder": self.holder, "object": self.object,
                               "status": self.status}
        for key in ("node", "mode", "colour"):
            value = getattr(self, key)
            if value:
                out[key] = value
        if self.since:
            out["since"] = self.since
        if self.held_for:
            out["held_for"] = self.held_for
        if self.depth:
            out["depth"] = self.depth
        return out

    def __str__(self) -> str:
        bits = [f"{self.holder} {self.status} {self.object}"]
        if self.mode:
            bits.append(f"mode={self.mode}")
        if self.colour:
            bits.append(f"colour={self.colour}")
        if self.held_for:
            bits.append(f"held_for={self.held_for:g}")
        return ("  " * self.depth) + " ".join(bits)


@dataclass(frozen=True)
class Postmortem:
    """The verdict on one finished atomic action."""

    action: str
    name: str = ""
    node: str = ""
    colours: Tuple[str, ...] = field(default_factory=tuple)
    outcome: str = ""                 # "committed" | "aborted"
    reason: str = ""                  # taxonomy constant; "" for commits
    detail: str = ""
    begin: float = 0.0
    end: float = 0.0
    blockers: Tuple[BlockerLink, ...] = field(default_factory=tuple)
    txns: Tuple[str, ...] = field(default_factory=tuple)

    @property
    def duration(self) -> float:
        return self.end - self.begin

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "action": self.action, "outcome": self.outcome,
            "begin": self.begin, "end": self.end,
        }
        for key in ("name", "node", "reason", "detail"):
            value = getattr(self, key)
            if value:
                out[key] = value
        if self.colours:
            out["colours"] = list(self.colours)
        if self.blockers:
            out["blockers"] = [link.to_dict() for link in self.blockers]
        if self.txns:
            out["txns"] = list(self.txns)
        return out

    def __str__(self) -> str:
        head = f"{self.action} ({self.name}) {self.outcome}"
        if self.reason:
            head += f" [{self.reason}]"
        if self.detail:
            head += f": {self.detail}"
        return head

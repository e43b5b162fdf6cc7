"""Abort attribution: from observed failures to one taxonomy reason.

The classifier works from the *first* failure signal an action saw — in
this codebase an action aborts on its first failure, so the proximate
cause is the earliest ``action.failure`` / ``lock.refused`` on record —
and refines it against the reconstructed world: blocker chains for lock
deaths, vote reasons and downgrade history for 2PC deaths, and node
crash/restart knowledge to tell a dead process (``crash-partition``)
from a dropped message with everyone alive (``injected-fault``).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.obs.postmortem.records import (
    APP_ERROR,
    BlockerLink,
    CASCADE,
    CRASH_PARTITION,
    DEADLOCK_VICTIM,
    EXPLICIT_ABORT,
    FAST_PATH_DOWNGRADE,
    INJECTED_FAULT,
    LOCK_CONFLICT,
    UNKNOWN,
    VOTE_ROLLBACK,
)

#: lock refusal error classes that mean "another action was in the way"
_CONFLICT_ERRORS = ("LockTimeout", "LockRefused")

#: vote-refusal reasons that prove a participant restarted mid-protocol
_CRASH_VOTE_REASONS = ("epoch-restart", "write-set-lost")

#: what the transport says of a call that was acknowledged and then ran
#: out of its completion budget: its handler was still waiting
_COMPLETION_TIMEOUT = "acknowledged but no reply"

Verdict = Tuple[str, str, Tuple[BlockerLink, ...]]


def attribute(info, world) -> Verdict:
    """Classify one aborted action (``info`` is its record in ``world``)."""
    failure = info.failures[0] if info.failures else None
    if failure is not None:
        return _from_failure(failure, info, world)
    # no client-side failure record: the local runtime's path, or a death
    # the client never saw — lock refusals speak for themselves
    refusal = _refusal(info, errors=("DeadlockDetected",))
    if refusal is not None:
        return (DEADLOCK_VICTIM, _refusal_detail(refusal),
                refusal["blockers"])
    refusal = _refusal(info, errors=_CONFLICT_ERRORS)
    if refusal is not None:
        return LOCK_CONFLICT, _refusal_detail(refusal), refusal["blockers"]
    return EXPLICIT_ABORT, "no failure observed before the abort", ()


def _from_failure(failure, info, world) -> Verdict:
    cause = failure["cause"]
    if cause == "deadlock-victim":
        refusal = _refusal(info, errors=("DeadlockDetected",),
                           object_uid=failure["object"])
        if refusal is not None:
            return (DEADLOCK_VICTIM, _refusal_detail(refusal),
                    refusal["blockers"])
        return DEADLOCK_VICTIM, failure["detail"], ()
    if cause == "lock-conflict":
        refusal = _refusal(info, errors=_CONFLICT_ERRORS,
                           object_uid=failure["object"])
        if refusal is not None:
            return LOCK_CONFLICT, _refusal_detail(refusal), refusal["blockers"]
        return LOCK_CONFLICT, failure["detail"], ()
    if cause == "server-restart":
        return (CRASH_PARTITION,
                f"server {failure['dst']} restarted under the action: "
                f"{failure['detail']}", ())
    if cause == "node-down":
        return (CRASH_PARTITION,
                f"node {failure['dst']} was down during {failure['op']}", ())
    if cause == "rpc-timeout":
        if failure["dst"] and world.node_faulted(failure["dst"],
                                                 failure["tick"]):
            return (CRASH_PARTITION,
                    f"{failure['op']} to crashed node {failure['dst']} "
                    f"timed out", ())
        refusal = _refusal(info, errors=("RpcTimeout",))
        if refusal is not None and refusal["blockers"]:
            return LOCK_CONFLICT, _refusal_detail(refusal), refusal["blockers"]
        return (INJECTED_FAULT,
                f"{failure['op']} to {failure['dst'] or 'peer'} timed out "
                f"with every involved node alive", ())
    if cause == "commit-failed":
        return _from_commit_failure(failure, info, world)
    if cause == "parent-settled":
        return CASCADE, f"parent {failure['detail']} settled first", ()
    if cause == "action-aborted":
        # aborted from elsewhere; the original cause may be on record as
        # an earlier lock refusal at some server
        refusal = _refusal(info, errors=("DeadlockDetected",))
        if refusal is not None:
            return (DEADLOCK_VICTIM, _refusal_detail(refusal),
                    refusal["blockers"])
        refusal = _refusal(info, errors=_CONFLICT_ERRORS)
        if refusal is not None:
            return LOCK_CONFLICT, _refusal_detail(refusal), refusal["blockers"]
        return CASCADE, f"aborted elsewhere: {failure['detail']}", ()
    if cause == "app-error":
        return (APP_ERROR,
                f"{failure['op']} raised {failure['error']}: "
                f"{failure['detail']}", ())
    return UNKNOWN, f"unclassified failure cause {cause!r}", ()


def _from_commit_failure(failure, info, world) -> Verdict:
    txn = _failed_txn(failure, info, world)
    if txn is None:
        return (UNKNOWN,
                f"commit of colour {failure['colour']} failed with no "
                f"transaction round on record", ())
    if txn.downgrades:
        downgrade = txn.downgrades[-1]
        # a downgrade forced by a dead peer is mechanism, not cause:
        # the crash owns the abort
        if downgrade["dst"] and world.node_faulted(downgrade["dst"],
                                                   failure["tick"]):
            return (CRASH_PARTITION,
                    f"txn {txn.txn}: participant {downgrade['dst']} "
                    f"crashed under the fast path "
                    f"({downgrade['reason']}, resolved "
                    f"{downgrade['resolution']})", ())
        return (FAST_PATH_DOWNGRADE,
                f"txn {txn.txn}: fast path degenerated "
                f"({downgrade['reason']}, resolved {downgrade['resolution']}"
                f" via {downgrade['dst']})", ())
    if txn.cause in ("vote-rollback", "prepare-refused", "fast-path-downgrade"):
        crashed = _vote(txn, reasons=_CRASH_VOTE_REASONS)
        if crashed is not None:
            return (CRASH_PARTITION,
                    f"txn {txn.txn}: participant {crashed.node} "
                    f"restarted mid-prepare ({crashed.reason})", ())
        rollback = _vote(txn, votes=("rollback", "refused"))
        if rollback is not None:
            return (VOTE_ROLLBACK,
                    f"txn {txn.txn}: participant {rollback.node} voted "
                    f"{rollback.vote}"
                    + (f" ({rollback.reason})" if rollback.reason
                       else ""), ())
        return VOTE_ROLLBACK, f"txn {txn.txn}: a participant voted no", ()
    if txn.cause in ("participant-unreachable", "action-aborted"):
        voted = {v.node for v in txn.votes}
        silent = [p for p in txn.participants if p not in voted]
        crashed = [p for p in silent or txn.participants
                   if world.node_faulted(p, failure["tick"])]
        if crashed:
            return (CRASH_PARTITION,
                    f"txn {txn.txn}: participant {crashed[0]} crashed "
                    f"before deciding", ())
        return (INJECTED_FAULT,
                f"txn {txn.txn}: participant "
                f"{silent[0] if silent else txn.participants[0]} "
                f"unreachable with every node alive", ())
    if txn.cause == "colour-order-cascade":
        return (CASCADE,
                f"txn {txn.txn}: an earlier colour's round failed first", ())
    return (UNKNOWN,
            f"txn {txn.txn} aborted with unclassified cause "
            f"{txn.cause!r}", ())


def _failed_txn(failure, info, world):
    """The abort-decided round of the failed colour (latest wins)."""
    colour = failure["colour"]
    found = None
    for txn_id in info.txns:
        txn = world.txns.get(txn_id)
        if txn is None or txn.decision == "commit":
            continue
        if colour and txn.colour != colour:
            continue
        found = txn
    return found


def outwaited(failure) -> bool:
    """Did a lock-taking call (``invoke``, ``lock``) time out in its
    completion phase?  Its server acknowledged it and then kept it queued
    for the lock past the client's budget: a lock conflict, not a lost
    message, when the World still has the wait."""
    return (str(failure.get("op", "")).startswith(("invoke:", "lock:"))
            and _COMPLETION_TIMEOUT in str(failure.get("detail", "")))


def _refusal(info, errors, object_uid: str = "") -> Optional[dict]:
    """Earliest matching lock refusal (preferring the named object)."""
    if object_uid:
        for refusal in info.refusals:
            if refusal["error"] in errors and refusal["object"] == object_uid:
                return refusal
    for refusal in info.refusals:
        if refusal["error"] in errors:
            return refusal
    return None


def _refusal_detail(refusal) -> str:
    waited = f"{refusal['mode']} on {refusal['object']}"
    if refusal["node"]:
        waited += f"@{refusal['node']}"
    head = (f"deadlock victim waiting for {waited}"
            if refusal["error"] == "DeadlockDetected"
            else f"gave up waiting for {waited}")
    if refusal["colour"]:
        head += f" (colour {refusal['colour']})"
    if refusal["blockers"]:
        top = refusal["blockers"][0]
        head += f"; blocked by {top.holder}"
        if top.colour:
            head += f" [{top.colour}]"
    return head


def _vote(txn, votes=None, reasons=None):
    for vote in txn.votes:
        if vote.reason == "presumed-abort-straggler":
            continue  # an echo of the abort, never its cause
        if votes is not None and vote.vote in votes:
            return vote
        if reasons is not None and vote.reason in reasons:
            return vote
    return None

"""Messages and wire encoding of colours and action contexts.

The simulated network deep-copies payloads, so nothing structured survives
by reference — colours and action ancestry cross the wire as plain dicts,
and the receiving server reconstructs them.  This mirrors what a real
distributed Arjuna would marshal into RPC parameters.

A :class:`Message` is a named tuple, built positionally on the hot path.
Like :class:`~repro.util.uid.Uid` and :class:`~repro.colours.colour.Colour`
it equals the plain tuple of its fields (its dict payload keeps it
unhashable).  A uid, being a tuple with a tuple's hash, also equals its
wire encoding: ``encode_uid(uid) == uid``.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.colours.colour import Colour
from repro.util.uid import Uid


class _Fields(NamedTuple):
    src: str
    dst: str
    kind: str
    payload: Dict[str, Any]
    msg_id: int
    reply_to: int


class Message(_Fields):
    """One network message; one built without a payload gets a dict of
    its own."""

    __slots__ = ()

    def __new__(cls, src: str, dst: str, kind: str,
                payload: Optional[Dict[str, Any]] = None, msg_id: int = 0,
                reply_to: int = 0) -> "Message":
        return tuple.__new__(cls, (src, dst, kind,
                                   {} if payload is None else payload,
                                   msg_id, reply_to))


# -- wire encoding ------------------------------------------------------------

def encode_uid(uid: Uid) -> Tuple[str, int]:
    return (uid.namespace, uid.sequence)


def decode_uid(raw) -> Uid:
    namespace, sequence = raw
    return Uid(str(namespace), int(sequence))


def encode_ops(ops: Dict[Uid, List[Tuple[str, Any]]]) -> Dict[Any, list]:
    """A colour's semantic operations, ``{uid: [(method, args)]}``, as
    they travel in a commute prepare and are logged on a PREPARED record."""
    return {encode_uid(uid): [[method, list(args)] for method, args in ops_of]
            for uid, ops_of in ops.items()}


def decode_ops(raw: Dict[Any, list]) -> Dict[Uid, List[Tuple[str, list]]]:
    return {decode_uid(raw_uid): [(method, list(args)) for method, args in ops_of]
            for raw_uid, ops_of in raw.items()}


def encode_colour(colour: Colour) -> Dict[str, Any]:
    return {"uid": encode_uid(colour.uid), "name": colour.name}


def decode_colour(raw: Dict[str, Any]) -> Colour:
    return Colour(decode_uid(raw["uid"]), str(raw["name"]))


def encode_action_context(action) -> List[Dict[str, Any]]:
    """Serialise an action's ancestry, root first.

    ``action`` is an :class:`~repro.actions.node.ActionNode` — the cluster
    client's action records.  The server builds the acting action's mirror
    from this; ``home`` (the node the action's client runs on) is what
    distributed deadlock probes route through.
    """
    chain = []
    walker = action
    while walker is not None:
        chain.append(walker)
        walker = walker.parent
    chain.reverse()
    return [
        {
            "uid": encode_uid(entry.uid),
            "colours": [encode_colour(c) for c in sorted(entry.colours, key=lambda c: c.uid)],
            "home": entry.home,
        }
        for entry in chain
    ]


def decode_action_context(raw: List[Dict[str, Any]]) -> List[Tuple[Uid, frozenset, str]]:
    """Decode to a list of (uid, colours, home) triples, root first."""
    return [
        (decode_uid(entry["uid"]),
         frozenset(decode_colour(c) for c in entry["colours"]),
         str(entry.get("home", "")))
        for entry in raw
    ]

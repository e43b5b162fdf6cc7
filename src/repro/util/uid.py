"""Unique identifiers for objects, actions, colours, nodes and messages.

Arjuna used a structured ``Uid`` (host address + process id + timestamp); in
a deterministic simulation wall-clock components would break replayability,
so a :class:`Uid` here is a (namespace, sequence) pair drawn from a
:class:`UidGenerator`.  Within one generator, uids are unique and totally
ordered by creation; the ordering is used for deadlock victim selection
(youngest aborts) and for deterministic tie-breaking throughout.

A :class:`Uid` is a named tuple, so hashing, equality and ordering run in
C.  Its hash is ``hash((namespace, sequence))``, the value a frozen
dataclass of the same fields hashes to, which keeps every set and dict
order that depends on it.  Being a tuple, a uid also *equals* its wire
encoding: ``Uid("action", 3) == ("action", 3)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple


class Uid(NamedTuple):
    """An immutable, totally ordered unique identifier.

    Ordering is by (namespace, sequence); creation order within a namespace
    therefore matches uid order.
    """

    namespace: str
    sequence: int

    def __str__(self) -> str:
        return f"{self.namespace}:{self.sequence}"


@dataclass
class UidGenerator:
    """Hands out fresh :class:`Uid` values for one namespace.

    Instances are cheap; each runtime keeps one generator per kind of entity
    ("action", "object", "colour", ...).  Not thread-safe by design: the
    threaded runtime wraps allocation in its own lock, the simulator is
    single-threaded.
    """

    namespace: str
    _counter: Iterator[int] = field(default_factory=lambda: itertools.count(1), repr=False)

    def fresh(self) -> Uid:
        """Return a uid never returned before by this generator."""
        return Uid(self.namespace, next(self._counter))

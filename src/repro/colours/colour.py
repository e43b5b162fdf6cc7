"""Colour identities and allocation.

The paper assumes colours are assigned to actions *statically* (§5.1).  The
structures layer (``repro.structures``) allocates fresh colours per structure
instance via a :class:`ColourAllocator`, implementing §6's "generate colour
assignments automatically".

A :class:`Colour` is a named tuple ``(uid, name)``: hashing, equality and
ordering run in C, its hash is ``hash((uid, name))`` as a frozen dataclass
of the same fields would hash, and it equals that plain tuple (its wire
encoding, ``encode_colour``, is a dict and equals no colour).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, NamedTuple, Union

from repro.util.uid import Uid, UidGenerator


class Colour(NamedTuple):
    """An immutable colour identity.

    Two colours are the same colour iff their uids are equal; the ``name``
    is a human label only (the paper's "red"/"blue"/"green") and may repeat
    across distinct colours.
    """

    uid: Uid
    name: str = ""

    def __str__(self) -> str:
        return self.name or str(self.uid)


class ColourAllocator:
    """Hands out fresh colours.

    One allocator per runtime; colour identity is scoped to the runtime, as
    actions never span runtimes.
    """

    def __init__(self, namespace: str = "colour"):
        self._uids = UidGenerator(namespace)

    def fresh(self, name: str = "") -> Colour:
        """Return a colour distinct from every previously allocated one."""
        uid = self._uids.fresh()
        return Colour(uid, name or f"c{uid.sequence}")


ColourLike = Union[Colour, Iterable[Colour]]


def colour_set(colours: ColourLike) -> FrozenSet[Colour]:
    """Normalise a single colour or an iterable of colours to a frozenset."""
    if isinstance(colours, Colour):
        return frozenset((colours,))
    return frozenset(colours)

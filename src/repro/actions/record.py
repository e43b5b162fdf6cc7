"""Undo records: before-images captured on first write per (object, colour),
and the operations applied to semantic objects.

The record keeps a reference to the live object (to restore its in-memory
state on abort) and the serialized before-image.  ``seq`` orders restores:
aborts replay newest-first so nested overwrites unwind correctly.  When a
child commits into an ancestor, the ancestor keeps the *elder* image for an
object it already has a record for — the elder image is the state at the
start of the outermost responsibility span.

:class:`UndoLedger` is the per-colour book of these that every action
keeps: a local :class:`~repro.actions.action.Action` and a server-side
``ActionMirror`` own one each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple, TYPE_CHECKING, Union

from repro.colours.colour import Colour
from repro.util.uid import Uid

if TYPE_CHECKING:  # pragma: no cover
    from repro.objects.semantic import SemanticLockableObject
    from repro.objects.state_manager import StateManager


@dataclass
class UndoRecord:
    """Everything needed to undo one object's modification in one colour."""

    obj: "StateManager"
    colour: Colour
    before_image: bytes
    seq: int
    origin_action: Uid

    def restore(self) -> None:
        """Put the object's in-memory state back to the before-image."""
        self.obj.restore_snapshot(self.before_image)


@dataclass
class OperationUndo:
    """Type-specific recovery (§2): one applied operation, undone by its
    inverse operation and made permanent by merging it.

    "If some operations, say add() and subtract(), of an object commute,
    then if an atomic action aborts after having performed, say an add()
    operation, then rather than recovering the state of the object, the
    corresponding subtract() operation can be performed."

    Unlike a before-image there may be many of these per (object, colour);
    each records exactly one applied operation (its ``method``, positional
    ``args`` and ``result``), and compensations of commuting operations
    commute, so restore order among them is free (we still run
    newest-first globally, interleaved with image restores by ``seq``).
    """

    obj: "SemanticLockableObject"
    method: str
    args: Tuple
    result: Any
    inverse: str
    seq: int
    origin_action: Uid

    def restore(self) -> None:
        """Apply the compensating operation."""
        self.obj.run_compensation(self.inverse, self.result, self.args)


class UndoLedger:
    """One action's undo responsibility and write sets, colour by colour."""

    def __init__(self) -> None:
        self._images: Dict[Colour, Dict[Uid, UndoRecord]] = {}
        self._operations: Dict[Colour, List[OperationUndo]] = {}
        #: colour -> object uid -> object: what the colour's commit persists
        self.written: Dict[Colour, Dict[Uid, "StateManager"]] = {}

    @property
    def empty(self) -> bool:
        """True when the action is answerable for nothing."""
        return not (self._images or self._operations or self.written)

    def note_write(self, obj: "StateManager", colour: Colour, seq: int,
                   origin: Uid) -> None:
        """``obj`` is about to be written in ``colour``: capture its
        before-image unless one is held already (the eldest is kept)."""
        images = self._images.setdefault(colour, {})
        if obj.uid not in images:
            images[obj.uid] = UndoRecord(
                obj=obj, colour=colour, before_image=obj.snapshot(),
                seq=seq, origin_action=origin,
            )
        self.written.setdefault(colour, {})[obj.uid] = obj

    def note_operation(self, obj: "SemanticLockableObject", colour: Colour,
                       method: str, args: Tuple, result: Any, inverse: str,
                       seq: int, origin: Uid) -> None:
        """``method(*args)`` was applied to ``obj`` in ``colour``: keep it
        (type-specific recovery, no before-image)."""
        self._operations.setdefault(colour, []).append(OperationUndo(
            obj, method, tuple(args), result, inverse, seq, origin))
        self.written.setdefault(colour, {})[obj.uid] = obj

    def ops(self, colour: Colour) -> Dict[Uid, List[Tuple[str, Tuple]]]:
        """object uid -> the colour's operations on it, as ``(method,
        args)`` in the order they ran: what the colour's commit merges
        into each semantic object's committed state."""
        ops: Dict[Uid, List[Tuple[str, Tuple]]] = {}
        for record in sorted(self._operations.get(colour, ()),
                             key=lambda r: r.seq):
            ops.setdefault(record.obj.uid, []).append(
                (record.method, record.args))
        return ops

    def bequeath(self, colour: Colour, other: "UndoLedger") -> None:
        """Commit routing: one colour's records and write set move to the
        ledger of the ancestor that inherits the colour."""
        images = other._images.setdefault(colour, {})
        for object_uid, record in self._images.pop(colour, {}).items():
            images.setdefault(object_uid, record)  # elder image wins
        operations = self._operations.pop(colour, [])
        if operations:
            other._operations.setdefault(colour, []).extend(operations)
        other.written.setdefault(colour, {}).update(
            self.written.pop(colour, {}))

    def drop(self, colour: Colour) -> Dict[Uid, "StateManager"]:
        """The colour leaves this action's responsibility (made permanent,
        or its locks released); returns what it had written."""
        self._images.pop(colour, None)
        self._operations.pop(colour, None)
        return self.written.pop(colour, {})

    def records(self) -> List[Union[UndoRecord, OperationUndo]]:
        """All undo responsibility: before-images and operation logs."""
        found: List[Union[UndoRecord, OperationUndo]] = [
            record for images in self._images.values()
            for record in images.values()
        ]
        for operations in self._operations.values():
            found.extend(operations)
        return found

    def unwind(self) -> None:
        """Abort: restore everything newest-first, then forget it all."""
        for record in sorted(self.records(), key=lambda r: r.seq, reverse=True):
            record.restore()
        self._images.clear()
        self._operations.clear()
        self.written.clear()
